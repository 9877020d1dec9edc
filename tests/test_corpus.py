import random
import re
import tracemalloc
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import interned, profile_of
from plotarc.corpus import (
    Corpus,
    CorpusError,
    Novel,
    NovelMetadata,
    demo_lexicon,
    generate_synthetic_corpus,
    load_corpus,
    load_lemma_map,
    segment_bounds,
    tokenize,
    write_corpus,
)
from plotarc.experiments import corpus_checksum, prepare_inputs
from plotarc.features import N_DIMS
from plotarc.lexicon import lexicon_to_text, load_lexicon_file, parse_lexicon


def contents(corpus):
    """Each novel's metadata and lemma strings: what two corpora must share to be equal."""
    return [(novel.metadata, tuple(novel.lemmas)) for novel in corpus.novels]


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def reference_tokenize(text):
    """The per-character tokenizer that ``tokenize`` must match exactly."""
    tokens = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


# Letters, punctuation, separators, decimal digits, marks and symbols, plus
# whitespace, "_" (connector punctuation), a byte-order mark (a format
# character, not punctuation) and an astral punctuation mark (U+1E95E ADLAM
# INITIAL EXCLAMATION MARK).
TOKENIZER_TEXT = st.text(
    st.one_of(
        st.characters(whitelist_categories=("L", "P", "Z", "Nd", "M", "S")),
        st.sampled_from([" ", "\n", "\t", "_", "\ufeff", "\U0001e95e"]),
    ),
    max_size=200,
)


class TestTokenize:
    def test_strips_sentence_punctuation(self):
        assert tokenize("Es war ein Zufall.") == ["Es", "war", "ein", "Zufall"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_punctuation_only_token_dropped(self):
        assert tokenize("—") == []

    def test_inner_punctuation_kept(self):
        assert tokenize("weiß's nicht") == ["weiß's", "nicht"]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("„Hallo“.", ["Hallo"]),
            ("__x__", ["x"]),
            ("Es war ein Zufall", ["Es", "war", "ein", "Zufall"]),
            ("\ufeff„Hallo“ \U0001e95eja\U0001e95e", ["\ufeff„Hallo", "ja"]),
            ("\ufeffGlück\tund\n  Ende  ", ["\ufeffGlück", "und", "Ende"]),
            # ASCII symbols are category S, not P: they stay on the token.
            ("$5 +x <y> =z ^a| ~b", ["$5", "+x", "<y>", "=z", "^a|", "~b"]),
            ("($5) [+x]!", ["$5", "+x"]),
            # U+037E GREEK QUESTION MARK and U+0387 GREEK ANO TELEIA are
            # category Po; NFC maps them to ";" and "·".
            ("\u037ejα\u037e \u0387β\u0387", ["jα", "β"]),
            # NBSP, EM SPACE and the information separators U+001C-U+001F split.
            ("a\xa0b\u2003c\x1cd\x1de\x1ef\x1fg", ["a", "b", "c", "d", "e", "f", "g"]),
            # A combining mark is category M: it stays, also after punctuation.
            (".\u0301a\u0308. e\u0301!", ["\u0301a\u0308", "e\u0301"]),
            # A lone surrogate is not punctuation and must not raise.
            ("\ud800 .\ud800. x\udfff", ["\ud800", "\ud800", "x\udfff"]),
        ],
    )
    def test_fixed_cases_match_reference(self, text, expected):
        assert tokenize(text) == reference_tokenize(text) == expected

    @given(TOKENIZER_TEXT)
    def test_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(st.text(max_size=200))
    def test_retokenize_is_identity(self, text):
        tokens = tokenize(text)
        assert all(tokens)
        assert tokenize(" ".join(tokens)) == tokens


class TestLemmatize:
    """Lemmatization inside ``load_corpus``: lemma-map lookup with identity fallback."""

    @staticmethod
    def first_lemmas(toy_corpus_dir, lemma_map):
        text_dir, metadata = toy_corpus_dir
        return tuple(load_corpus(text_dir, metadata, lemma_map).novels[0].lemmas)[:4]

    def test_map_hit(self, toy_corpus_dir):
        assert self.first_lemmas(toy_corpus_dir, {"war": "sein"}) == ("Es", "sein", "ein", "Zufall")

    def test_identity_fallback(self, toy_corpus_dir):
        assert self.first_lemmas(toy_corpus_dir, {"ging": "gehen"}) == ("Es", "war", "ein", "Zufall")

    def test_empty_map(self, toy_corpus_dir):
        assert self.first_lemmas(toy_corpus_dir, {}) == ("Es", "war", "ein", "Zufall")

    def test_idempotent_on_lemmas(self, toy_corpus_dir):
        mapping = {"war": "sein", "sein": "sein", "Zufall": "Zufall"}
        assert self.first_lemmas(toy_corpus_dir, mapping) == ("Es", "sein", "ein", "Zufall")


def reference_load_lemma_map(path) -> dict[str, str]:
    """The whole-text reader that ``load_lemma_map`` replaced, with its
    empty-cell rule: the oracle for the map and the first error."""
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        lines = unicodedata.normalize("NFC", fh.read()).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != 2:
            raise CorpusError(f"{path}: line {lineno}: expected 2 columns, got {len(cells)}")
        surface, lemma = cells
        if not surface or not lemma:
            raise CorpusError(f"{path}: line {lineno}: empty cell")
        if surface in mapping:
            raise CorpusError(f"{path}: line {lineno}: duplicate surface form {surface!r}")
        mapping[surface] = lemma
    return mapping


def map_outcome(load, path):
    try:
        return list(load(path).items())
    except CorpusError as exc:
        return ("error", str(exc))


# Words in NFC and NFD, with a combining mark that may start a line.
map_words = st.sampled_from(["glück", "glu\u0308ck", "ging", "gehen", "\u0308a", "Tod", ""]) | st.text(
    st.characters(categories=("Ll", "Lu", "Mn")), max_size=5
)
map_lines = st.lists(map_words, min_size=1, max_size=3).map("\t".join)


class TestLemmaMapFile:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        lines=st.lists(map_lines | st.just(""), max_size=10),
        end=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
    )
    @example(lines=["freude\t"], end="\n", bom=False)
    @example(lines=["ging\tgehen", "gi\u0308ng\tgehen", "ging\tgang"], end="\r\n", bom=True)
    def test_matches_reference(self, tmp_path_factory, lines, end, bom):
        path = tmp_path_factory.mktemp("map") / "map.tsv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + end.join(lines).encode("utf-8"))
        assert map_outcome(load_lemma_map, path) == map_outcome(reference_load_lemma_map, path)

    @pytest.mark.parametrize("line", ["freude\t", "\tfreude", "\t"])
    def test_empty_cell_rejected(self, tmp_path, line):
        p = tmp_path / "map.tsv"
        p.write_text(f"ging\tgehen\n{line}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"{p}: line 2: empty cell") + "$"):
            load_lemma_map(p)

    def test_surface_forms_of_one_lemma_share_one_string(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("ging\tgehen\ngeht\tgehen\nGehen\tgehen\nwar\tsein\n", encoding="utf-8")
        mapping = load_lemma_map(p)
        assert mapping == {"ging": "gehen", "geht": "gehen", "Gehen": "gehen", "war": "sein"}
        assert len({id(mapping[s]) for s in ("ging", "geht", "Gehen")}) == 1

    def test_decoding_error_counts_from_the_start_of_the_file(self, tmp_path):
        # The reader decodes 8 KB chunks; the bad byte sits past the first one,
        # and a byte-order mark shifts it by three more.
        p = tmp_path / "map.tsv"
        data = b"\xef\xbb\xbf" + "".join(f"form{i}\tlemma{i}\r" for i in range(700)).encode("utf-8")
        data += b"form\xff\tlemma\n"
        p.write_bytes(data)
        offset = data.index(b"\xff")
        assert offset > 8192
        with pytest.raises(CorpusError) as info:
            load_lemma_map(p)
        assert str(info.value) == (
            f"{p}: 'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte (line 701)"
        )

    def test_load(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("ging\tgehen\nwar\tsein\n", encoding="utf-8")
        assert load_lemma_map(p) == {"ging": "gehen", "war": "sein"}

    def test_byte_order_mark_dropped(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_bytes(b"\xef\xbb\xbf" + "ging\tgehen\n".encode("utf-8"))
        assert load_lemma_map(p) == {"ging": "gehen"}

    def test_windows_line_ends(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_bytes(b"ging\tgehen\r\nwar\tsein\r\n")
        assert load_lemma_map(p) == {"ging": "gehen", "war": "sein"}

    def test_entries_nfc_normalized(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text(unicodedata.normalize("NFD", "glücks\tglück\n"), encoding="utf-8")
        assert load_lemma_map(p) == {"glücks": "glück"}

    def test_duplicate_surface_rejected(self, tmp_path):
        p = tmp_path / "map.tsv"
        p.write_text("ging\tgehen\nging\tgang\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate"):
            load_lemma_map(p)


def nrc_sized_lexicon_text():
    """14 182 rows, the NRC lexicon's size."""
    rows = (np.random.default_rng(0).random((14_182, 10)) < 0.1).astype(int).astype(str)
    return "".join(f"lemma{i}\t" + "\t".join(r) + "\n" for i, r in enumerate(rows))


def lemma_map_text():
    """42 000 lines, three inflected forms for each of 14 000 lemmas."""
    return "".join(f"lemma{i}{s}\tlemma{i}\n" for i in range(14_000) for s in ("e", "en", "es"))


class TestReaderMemory:
    @pytest.mark.parametrize(
        "read, text",
        [(load_lexicon_file, nrc_sized_lexicon_text), (load_lemma_map, lemma_map_text)],
        ids=["lexicon", "lemma_map"],
    )
    def test_traced_peak_stays_near_the_result(self, tmp_path, read, text):
        # Measured: the lexicon peaks 0.47 MB above the 2.9 MB it returns, the
        # lemma map 0.43 MB above 4.3 MB. A list of eleven ints per lexicon
        # row peaked 2.6 MB above; the lemma map's whole text and list of
        # lines, 3.3 MB above.
        path = tmp_path / "input.tsv"
        path.write_text(text(), encoding="utf-8")
        tracemalloc.start()
        try:
            result = read(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result
        assert peak - current < 1_000_000

    def test_loaded_corpus_keeps_about_2_bytes_per_token(self, toy_corpus_dir):
        # A token is a uint16 id (500 forms); only its distinct form is stored
        # as a string. Measured: 0.46 MB retained for 200 000 tokens of 500
        # forms; int32 ids retained 0.86 MB, a tuple of lemma strings per novel 1.65 MB.
        text_dir, metadata = toy_corpus_dir
        forms = [f"w{i}" for i in range(500)]
        rng = random.Random(0)
        for novel_id in ("n1", "n2", "n3", "n4"):
            (text_dir / f"{novel_id}.txt").write_text(" ".join(rng.choices(forms, k=50_000)), encoding="utf-8")
        tracemalloc.start()
        try:
            corpus = load_corpus(text_dir, metadata)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, (n.lemmas for n in corpus.novels))) == 200_000
        assert current < 3 * 200_000 + 200 * len(forms) + 2_000 * corpus.total


class TestLoadCorpus:
    def test_loads_four_novels(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        corpus = load_corpus(text_dir, metadata)
        assert corpus.total == 4
        assert corpus.happy == 2 and corpus.unhappy == 2
        assert [n.metadata.id for n in corpus.novels] == ["n1", "n2", "n3", "n4"]
        assert tuple(corpus.novels[0].lemmas)[:3] == ("Es", "war", "ein")

    def test_missing_text_file_names_id(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        (text_dir / "n3.txt").unlink()
        with pytest.raises(CorpusError, match="n3"):
            load_corpus(text_dir, metadata)

    def test_bad_year_names_row(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        content = metadata.read_text(encoding="utf-8").replace("1840", "MDCCCXL")
        metadata.write_text(content, encoding="utf-8")
        with pytest.raises(CorpusError, match="row 3"):
            load_corpus(text_dir, metadata)

    @pytest.mark.parametrize("year", ["\u0661\u0668\u0664\u0660", "1_840", " 1840 "])
    def test_year_must_be_ascii_digits(self, toy_corpus_dir, year):
        text_dir, metadata = toy_corpus_dir
        content = metadata.read_text(encoding="utf-8").replace("1840", year)
        metadata.write_text(content, encoding="utf-8")
        with pytest.raises(CorpusError, match=f"{metadata.name}: row 3: year must be ASCII digits"):
            load_corpus(text_dir, metadata)

    def test_bad_label_rejected(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        content = metadata.read_text(encoding="utf-8").replace("unhappy", "sad")
        metadata.write_text(content, encoding="utf-8")
        with pytest.raises(CorpusError, match="label"):
            load_corpus(text_dir, metadata)

    def test_duplicate_id_rejected(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        lines = metadata.read_text(encoding="utf-8").splitlines()
        lines.append(lines[1])
        metadata.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate id"):
            load_corpus(text_dir, metadata)

    def test_text_byte_order_mark_dropped(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        text_path = text_dir / "n1.txt"
        text_path.write_bytes(b"\xef\xbb\xbf" + text_path.read_bytes())
        assert tuple(load_corpus(text_dir, metadata).novels[0].lemmas)[0] == "Es"

    def test_metadata_byte_order_mark_dropped(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        metadata.write_bytes(b"\xef\xbb\xbf" + metadata.read_bytes())
        assert load_corpus(text_dir, metadata).total == 4

    def test_metadata_windows_line_ends(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        metadata.write_bytes(metadata.read_bytes().replace(b"\n", b"\r\n"))
        corpus = load_corpus(text_dir, metadata)
        assert [n.metadata.label for n in corpus.novels] == [True, False, True, False]

    def test_lemma_map_applied(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        corpus = load_corpus(text_dir, metadata, {"war": "sein"})
        assert tuple(corpus.novels[0].lemmas)[1] == "sein"

    def test_tokens_of_one_surface_form_share_one_lemma(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        words = ["Freuden", "Kummer", "Segen", "Leiden", "Tode"]
        for i, novel_id in enumerate(["n1", "n2", "n3", "n4"]):
            (text_dir / f"{novel_id}.txt").write_text(" ".join(words[i:] * 30), encoding="utf-8")
        lemma_map = {"Freuden": "freude", "Tode": "tod"}
        before = dict(lemma_map)
        corpus = load_corpus(text_dir, metadata, lemma_map)
        for i, novel in enumerate(corpus.novels):
            assert tuple(novel.lemmas) == tuple(lemma_map.get(t, t) for t in words[i:] * 30)
        distinct = {id(lemma) for novel in corpus.novels for lemma in novel.lemmas}
        assert len(distinct) <= len(words) + len(lemma_map)
        assert lemma_map == before

    def test_deterministic(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        assert contents(load_corpus(text_dir, metadata)) == contents(load_corpus(text_dir, metadata))

    def test_decomposed_text_matches_composed_lexicon(self, toy_corpus_dir):
        # A text saved in NFD (decomposed umlauts) must match an NFC lexicon lemma.
        text_dir, metadata = toy_corpus_dir
        (text_dir / "n1.txt").write_text(unicodedata.normalize("NFD", "glück " * 80), encoding="utf-8")
        lexicon = parse_lexicon("glück\t0\t0\t0\t0\t1\t0\t1\t0\t0\t0\n")
        novel = load_corpus(text_dir, metadata).novels[0]
        assert tuple(novel.lemmas) == ("glück",) * 80
        profile = profile_of(novel, lexicon, 4)
        assert profile.matched_counts.sum() == 80


def reference_profiles(corpus, lexicon, n_segments):
    """Segment vectors and matched counts from one ``lexicon.entries.get`` per
    token over ``tuple(novel.lemmas)``: the lookup that interning replaced."""
    unknown = lexicon.size
    table = np.vstack([lexicon.scores, np.zeros(N_DIMS)])
    vectors, counts = [], []
    for novel in corpus.novels:
        rows = np.array([lexicon.entries.get(lemma, unknown) for lemma in tuple(novel.lemmas)])
        starts = segment_bounds(len(rows), n_segments)[:-1]
        matched = np.add.reduceat(rows != unknown, starts)
        vectors.append(np.add.reduceat(table[rows], starts) / np.maximum(matched, 1)[:, None])
        counts.append(matched)
    return np.array(vectors), np.array(counts)


# A -> B -> C is not chained: token A gets lemma B, token B gets C. Token C
# equals a mapped lemma; "Glücks" maps to the NFC lemma "glück".
CHAIN_MAP = {"A": "B", "B": "C", "Freuden": "freude", "Glücks": "glück"}
ORACLE_LEXICON = (
    "A\t1\t0\t0\t0\t0\t1\t0\t0\t0\t0\n"
    "B\t0\t1\t0\t0\t0\t0\t1\t0\t0\t0\n"
    "C\t0\t0\t1\t1\t0\t1\t0\t0\t0\t0\n"
    "freude\t0\t0\t0\t0\t1\t0\t1\t0\t0\t1\n"
    "glück\t0\t1\t0\t0\t1\t0\t1\t0\t0\t0\n"
)


class TestInterning:
    """Loaded novels hold ids into one vocabulary; profiles must equal the per-token lookup."""

    @pytest.fixture
    def oracle_corpus_dir(self, toy_corpus_dir):
        text_dir, metadata = toy_corpus_dir
        words = ["A", "B", "C", "Freuden", "freude", "Glücks", "glück", "filler1", "filler2", "Zufall"]
        rng = random.Random(5)
        for i, novel_id in enumerate(("n1", "n2", "n3", "n4")):
            text = " ".join(rng.choice(words) + rng.choice(["", "", ",", "."]) for _ in range(300 + i))
            if i % 2:
                text = unicodedata.normalize("NFD", text)
            (text_dir / f"{novel_id}.txt").write_text(text, encoding="utf-8")
        return text_dir, metadata

    @pytest.mark.parametrize("lemma_map", [CHAIN_MAP, None], ids=["chain-map", "no-map"])
    def test_profiles_equal_per_token_lookup(self, oracle_corpus_dir, lemma_map):
        text_dir, metadata = oracle_corpus_dir
        lexicon = parse_lexicon(ORACLE_LEXICON)
        corpus = load_corpus(text_dir, metadata, lemma_map)
        for novel in corpus.novels:
            text = unicodedata.normalize("NFC", (text_dir / f"{novel.metadata.id}.txt").read_text(encoding="utf-8"))
            assert tuple(novel.lemmas) == tuple((lemma_map or {}).get(t, t) for t in tokenize(text))
        inputs = prepare_inputs(corpus, lexicon, 7)
        vectors, counts = reference_profiles(corpus, lexicon, 7)
        assert inputs.vectors.tobytes() == vectors.tobytes()
        assert np.array_equal([p.matched_counts for p in inputs.profiles], counts)
        vocabulary = corpus.novels[0].lemmas.vocabulary
        assert all(novel.lemmas.vocabulary is vocabulary for novel in corpus.novels)
        assert len(set(vocabulary)) == len(vocabulary)  # one id per distinct lemma
        if lemma_map:
            lemmas = {lemma for novel in corpus.novels for lemma in novel.lemmas}
            assert {"B", "C", "freude", "glück"} <= lemmas and not lemmas & {"A", "Freuden", "Glücks"}

    @pytest.mark.parametrize("extra_rows", ["", "filler7\t0\t0\t0\t0\t1\t0\t1\t0\t0\t0\n"],
                             ids=["demo", "filler-lemma"])
    def test_generated_corpus_equals_its_loaded_copy(self, tmp_path, extra_rows):
        # With "filler7" in the lexicon, the generator draws one string from two
        # pools: the vocabulary must hold it once, so that both draws match.
        lexicon = parse_lexicon(lexicon_to_text(demo_lexicon()) + extra_rows)
        generated = generate_synthetic_corpus(4, 6, 3000, 4, lexicon)
        vocabulary = generated.vocabulary.tolist()
        assert vocabulary[:lexicon.size] == sorted(lexicon.entries)
        assert len(vocabulary) == len(set(vocabulary)) == len(set(lexicon.entries) | {f"filler{k}" for k in range(5000)})
        write_corpus(generated, tmp_path / "generated")
        loaded = load_corpus(tmp_path / "generated", tmp_path / "generated" / "metadata.tsv")
        assert contents(loaded) == contents(generated)
        assert corpus_checksum(loaded) == corpus_checksum(generated)
        a, b = prepare_inputs(generated, lexicon, 75), prepare_inputs(loaded, lexicon, 75)
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert all(np.array_equal(p.matched_counts, q.matched_counts) for p, q in zip(a.profiles, b.profiles))
        write_corpus(loaded, tmp_path / "loaded")
        assert read_dir(tmp_path / "loaded") == read_dir(tmp_path / "generated")
        if extra_rows:
            assert "filler7" in {lemma for novel in loaded.novels for lemma in novel.lemmas}

    def test_novels_of_two_vocabularies_are_refused(self, oracle_corpus_dir):
        text_dir, metadata = oracle_corpus_dir
        lexicon = parse_lexicon(ORACLE_LEXICON)
        one, other = load_corpus(text_dir, metadata, CHAIN_MAP), load_corpus(text_dir, metadata)
        mixed = Corpus((one.novels[0], other.novels[1]))
        for use in (lambda: prepare_inputs(mixed, lexicon, 7), lambda: corpus_checksum(mixed)):
            with pytest.raises(CorpusError, match="share one vocabulary"):
                use()
        # Re-interned into one vocabulary, the same novels are accepted.
        vectors, _ = reference_profiles(mixed, lexicon, 7)
        assert prepare_inputs(interned(mixed.novels), lexicon, 7).vectors.tobytes() == vectors.tobytes()


class TestIdWidth:
    def test_vocabulary_past_65536_forms_widens_later_ids(self, toy_corpus_dir):
        # Each novel brings 17 500 new forms and repeats every 7th older one,
        # so the fourth takes the vocabulary to 70 000 forms. Ids wrapped to
        # 16 bits would name other forms, several of them lexicon lemmas.
        text_dir, metadata = toy_corpus_dir
        rng = random.Random(3)
        texts = []
        for i, novel_id in enumerate(("n1", "n2", "n3", "n4")):
            tokens = [f"w{k}" for k in range(17_500 * i, 17_500 * (i + 1))]
            tokens += rng.sample([f"w{k}" for k in range(0, 17_500 * i, 7)], 2_500 * i)
            texts.append(tuple(tokens))
            (text_dir / f"{novel_id}.txt").write_text(" ".join(tokens), encoding="utf-8")
        lexicon = parse_lexicon("".join(
            f"w{k}" + "".join(f"\t{(k >> bit) & 1}" for bit in range(10)) + "\n" for k in range(0, 70_000, 61)
        ))
        corpus = load_corpus(text_dir, metadata)
        assert [novel.lemmas.ids.dtype for novel in corpus.novels] == [np.uint16] * 3 + [np.uint32]
        assert [tuple(novel.lemmas) for novel in corpus.novels] == texts
        vectors, counts = reference_profiles(corpus, lexicon, 75)
        inputs = prepare_inputs(corpus, lexicon, 75)
        assert inputs.vectors.tobytes() == vectors.tobytes()
        assert np.array_equal([p.matched_counts for p in inputs.profiles], counts)


def reference_generate(seed, n_novels, tokens_per_novel, ending_len_segments, lexicon):
    """The per-token generator loop that ``generate_synthetic_corpus`` must match."""
    positives = sorted(lexicon.lemmas_by_polarity(+1))
    negatives = sorted(lexicon.lemmas_by_polarity(-1))
    all_lemmas = sorted(lexicon.entries)
    rng = random.Random(seed)
    ending_start = segment_bounds(tokens_per_novel, 75)[75 - ending_len_segments]
    novels = []
    for i in range(n_novels):
        happy = i % 2 == 0
        signed_pool = positives if happy else negatives
        tokens = []
        for pos in range(tokens_per_novel):
            if pos < ending_start:
                if rng.random() < 0.30:
                    tokens.append(rng.choice(all_lemmas))
                else:
                    tokens.append(f"filler{rng.randrange(5000)}")
            else:
                if rng.random() < 0.40:
                    if rng.random() < 0.25:
                        tokens.append(rng.choice(signed_pool))
                    else:
                        tokens.append(rng.choice(all_lemmas))
                else:
                    tokens.append(f"filler{rng.randrange(5000)}")
        meta = NovelMetadata(
            id=f"synth-{i:04d}",
            title=f"Synthetic Novel {i}",
            author="Generator",
            year=1790 + (i * 13) % 120,
            label=happy,
        )
        novels.append(Novel(meta, tuple(tokens)))
    return Corpus(tuple(novels))


def signed_lexicon(n_positive, n_negative, n_lemmas):
    """``n_lemmas`` lemmas: the first ``n_positive`` positive, the next ``n_negative`` negative."""
    rows = []
    for i in range(n_lemmas):
        negative, positive = int(n_positive <= i < n_positive + n_negative), int(i < n_positive)
        rows.append(f"w{i:05d}" + "\t0" * 5 + f"\t{negative}\t{positive}" + "\t0" * 3)
    return parse_lexicon("\n".join(rows) + "\n")


# (positives, negatives, lemmas) for pool sizes where choice()'s rejection rule
# is at its edges: a pool of 1 draws one bit and rejects half; a power of two
# draws one bit more than it needs and rejects half; 14 182 (NRC size) draws 14.
POOL_SHAPES = [(1, 3, 5), (2, 8, 16), (2268, 3262, 14182)]


class TestSyntheticCorpus:
    @pytest.mark.parametrize(
        "seed, n_novels, tokens_per_novel, ending_len, shape",
        [
            pytest.param(*case, None, id="-".join(map(str, case)))
            for case in [
                (1, 4, 1500, 4),
                (7, 6, 1000, 1),
                (42, 2, 3001, 10),
                (3, 4, 75, 1),
                (9, 2, 151, 10),
                (5, 2, 149, 10),
            ]
        ]
        + [pytest.param(11, 2, 6000, 10, shape, id="pools-%d-%d-%d" % shape) for shape in POOL_SHAPES],
    )
    def test_writes_same_bytes_as_reference(
        self, tmp_path, seed, n_novels, tokens_per_novel, ending_len, shape
    ):
        lexicon = demo_lexicon() if shape is None else signed_lexicon(*shape)
        fast = generate_synthetic_corpus(seed, n_novels, tokens_per_novel, ending_len, lexicon)
        slow = reference_generate(seed, n_novels, tokens_per_novel, ending_len, lexicon)
        write_corpus(fast, tmp_path / "fast")
        write_corpus(slow, tmp_path / "slow")
        names = sorted(p.name for p in (tmp_path / "slow").iterdir())
        assert sorted(p.name for p in (tmp_path / "fast").iterdir()) == names
        for name in names:
            assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "slow" / name).read_bytes()

    def test_same_seed_identical(self, toy_lexicon):
        a = generate_synthetic_corpus(1, 40, 1500, 4, toy_lexicon)
        b = generate_synthetic_corpus(1, 40, 1500, 4, toy_lexicon)
        assert contents(a) == contents(b)

    def test_different_seed_differs(self, toy_lexicon):
        a = generate_synthetic_corpus(1, 40, 1500, 4, toy_lexicon)
        b = generate_synthetic_corpus(2, 40, 1500, 4, toy_lexicon)
        assert contents(a) != contents(b)

    def test_balanced_labels(self, toy_lexicon):
        corpus = generate_synthetic_corpus(1, 40, 1500, 4, toy_lexicon)
        assert corpus.happy == 20 and corpus.unhappy == 20

    def test_planted_polarity_gap(self, toy_lexicon):
        # Mean polarity over the last 4 segments, computed directly from
        # the token streams, must separate the classes by construction.
        corpus = generate_synthetic_corpus(3, 40, 1500, 4, toy_lexicon)
        happy_means, unhappy_means = [], []
        for novel in corpus.novels:
            profile = profile_of(novel, toy_lexicon)
            final_polarity = profile.segment_vectors[-4:, 2].mean()
            (happy_means if novel.metadata.label else unhappy_means).append(final_polarity)
        assert np.mean(happy_means) > np.mean(unhappy_means)

    def test_negative_seed_rejected(self, toy_lexicon):
        # random.Random(-7) seeds with 7: the corpus would alias seed 7's.
        with pytest.raises(CorpusError, match="^seed must be a non-negative integer, got -7$"):
            generate_synthetic_corpus(-7, 4, 150, 4, toy_lexicon)

    def test_odd_novel_count_rejected(self, toy_lexicon):
        with pytest.raises(CorpusError, match="even"):
            generate_synthetic_corpus(1, 3, 1500, 4, toy_lexicon)

    def test_too_few_tokens_rejected(self, toy_lexicon):
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(1, 4, 50, 4, toy_lexicon)

    def test_one_sided_lexicon_rejected(self, table1_lexicon):
        # Table 1 has one positive and one negative entry, so it works;
        # an all-neutral lexicon must not.
        from plotarc.lexicon import parse_lexicon

        neutral = parse_lexicon("dings\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0\n")
        with pytest.raises(CorpusError, match="positive.*negative"):
            generate_synthetic_corpus(1, 4, 150, 4, neutral)


class TestWriteCorpus:
    def test_roundtrip_through_disk(self, tmp_path, toy_lexicon):
        corpus = generate_synthetic_corpus(5, 6, 200, 2, toy_lexicon)
        out = tmp_path / "synth"
        write_corpus(corpus, out)
        again = load_corpus(out, out / "metadata.tsv")
        assert contents(again) == contents(corpus)
