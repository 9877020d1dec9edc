import io
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plotarc.lexicon import (
    DIMENSIONS,
    FILE_DIMENSIONS,
    POLARITY_INDEX,
    LexiconError,
    SentimentLexicon,
    lexicon_to_text,
    load_lexicon_file,
    parse_lexicon,
)

from conftest import TABLE1_TSV

# The oracle's own header table, spelled out: every accepted casefolded cell.
REFERENCE_HEADER_NAMES = {
    "positive": "positive",
    "pos": "positive",
    "negative": "negative",
    "neg": "negative",
    "anger": "anger",
    "anticipation": "anticipation",
    "disgust": "disgust",
    "fear": "fear",
    "joy": "joy",
    "sadness": "sadness",
    "surprise": "surprise",
    "trust": "trust",
}


def reference_parse_lexicon(text: str) -> SentimentLexicon:
    """The per-cell parser that ``parse_lexicon`` replaced, with its empty-lemma
    rule: the oracle for entries, score bits and the first error."""
    entries: dict[str, int] = {}
    rows: list[list[int]] = []
    targets = [DIMENSIONS.index(name) for name in FILE_DIMENSIONS]
    expected_cols = 1 + len(FILE_DIMENSIONS)
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != expected_cols:
            raise LexiconError(
                f"line {lineno}: expected {expected_cols} tab-separated columns, got {len(cells)}"
            )
        if lineno == 1 and any(cell not in ("0", "1") for cell in cells[1:]):
            mapped = []
            for cell in cells[1:]:
                key = cell.strip().casefold()
                if key not in REFERENCE_HEADER_NAMES:
                    raise LexiconError(f"line 1: unrecognized header column {cell!r}")
                mapped.append(REFERENCE_HEADER_NAMES[key])
            if len(set(mapped)) != len(mapped):
                raise LexiconError("line 1: duplicate header columns")
            targets = [DIMENSIONS.index(name) for name in mapped]
            continue
        lemma = unicodedata.normalize("NFC", cells[0])
        if not lemma:
            raise LexiconError(f"line {lineno}: empty lemma")
        if lemma in entries:
            raise LexiconError(f"line {lineno}: duplicate lemma {lemma!r}")
        row = [0] * len(DIMENSIONS)
        for target, cell in zip(targets, cells[1:]):
            if cell not in ("0", "1"):
                raise LexiconError(
                    f"line {lineno}: non-binary value {cell!r} in column {DIMENSIONS[target]!r}"
                )
            row[target] = int(cell)
        entries[lemma] = len(rows)
        rows.append(row)
    scores = np.array(rows, dtype=np.int8).reshape(len(rows), len(DIMENSIONS))
    scores[:, POLARITY_INDEX] = (
        scores[:, DIMENSIONS.index("positive")] - scores[:, DIMENSIONS.index("negative")]
    )
    return SentimentLexicon(entries, scores)


def outcome(parse, text):
    """What ``parse`` makes of ``text``: its entries and score bytes, or its error."""
    try:
        lex = parse(text)
    except LexiconError as exc:
        return ("error", str(exc))
    return list(lex.entries.items()), lex.scores.dtype, lex.scores.shape, lex.scores.tobytes()


# Lemmas in NFC and NFD, so that NFC-equal spellings can collide as duplicates.
lemmas = st.sampled_from(["glück", "glu\u0308ck", "Zufall", "über", "u\u0308ber", "a", "tod", "ähm"]) | st.text(
    st.characters(categories=("Ll", "Lu", "Mn")), min_size=1, max_size=6
)
bits = st.lists(st.sampled_from("01"), min_size=10, max_size=10)
bad_cells = st.sampled_from(["2", "", "00", " 1", "１", "0 ", "x"])


@st.composite
def lexicon_rows(draw):
    """One data row: mostly valid, else a bad cell, a wrong column count, an
    empty lemma or ten cells of 0, 1 and tabs that are not one digit each."""
    lemma, cells = draw(lemmas), draw(bits)
    kind = draw(st.integers(0, 9))
    if kind == 6:
        cells[draw(st.integers(0, 9))] = draw(bad_cells)
    elif kind == 7:
        cells = cells[: draw(st.integers(0, 9))] if draw(st.booleans()) else cells + ["0"]
    elif kind == 8:
        lemma = ""
    elif kind == 9:
        cells = ["00", ""] + cells[2:]
    return lemma + "".join("\t" + c for c in cells)


@st.composite
def lexicon_texts(draw):
    """Rows under an optional permuted, aliased or bad header, with blank lines
    and ``\n`` or ``\r\n`` line ends."""
    lines = draw(st.lists(lexicon_rows(), max_size=12))
    lines += [draw(st.sampled_from(lines))] if lines and draw(st.booleans()) else []
    if draw(st.booleans()):
        names = draw(st.permutations(FILE_DIMENSIONS))
        spell = {"positive": ["positive", "pos", "POS", " Positive "], "negative": ["negative", "neg", "Neg"]}
        header = [draw(st.sampled_from(spell.get(n, [n, n.upper()]))) for n in names]
        if draw(st.integers(0, 4)) == 0:
            header[draw(st.integers(0, 9))] = draw(st.sampled_from(["bogus", "", "joy", "1"]))
        lines.insert(0, "lemma\t" + "\t".join(header))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines)


def scores_of(lexicon, lemma):
    """The lemma's score row, keyed by dimension name."""
    return dict(zip(DIMENSIONS, lexicon.scores[lexicon.entries[lemma]]))


def polarity_of(positive, negative):
    header = "lemma\tpositive\tnegative\tanger\tanticipation\tdisgust\tfear\tjoy\tsadness\tsurprise\ttrust\n"
    lex = parse_lexicon(header + f"w\t{positive}\t{negative}" + "\t0" * 8 + "\n")
    return lex.scores[0, POLARITY_INDEX]


class TestDerivePolarity:
    def test_positive_word(self):
        assert polarity_of(1, 0) == 1

    def test_negative_word(self):
        assert polarity_of(0, 1) == -1

    def test_neutral_word(self):
        assert polarity_of(0, 0) == 0


class TestParse:
    def test_table1_entries(self, table1_lexicon):
        assert table1_lexicon.size == 3
        v = scores_of(table1_lexicon, "verabscheuen")
        assert v["negative"] == 1 and v["polarity"] == -1
        assert v["anger"] == 1 and v["disgust"] == 1 and v["fear"] == 1
        assert v["positive"] == 0 and v["joy"] == 0 and v["trust"] == 0
        b = scores_of(table1_lexicon, "bewundernswert")
        assert b["positive"] == 1 and b["polarity"] == 1
        assert b["joy"] == 1 and b["trust"] == 1 and b["anger"] == 0
        z = scores_of(table1_lexicon, "Zufall")
        assert z["surprise"] == 1 and z["polarity"] == 0
        assert sum(z.values()) == 1  # surprise only

    def test_empty_stream(self):
        assert parse_lexicon("").size == 0

    def test_non_binary_value_names_line(self):
        bad = TABLE1_TSV.replace("Zufall\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0", "Zufall\t0\t0\t0\t0\t0\t0\t0\t0\t2\t0")
        with pytest.raises(LexiconError, match="line 3"):
            parse_lexicon(bad)

    def test_duplicate_lemma_rejected(self):
        with pytest.raises(LexiconError, match="duplicate lemma"):
            parse_lexicon(TABLE1_TSV + TABLE1_TSV.splitlines()[0] + "\n")

    def test_wrong_column_count(self):
        with pytest.raises(LexiconError, match="columns"):
            parse_lexicon("wort\t1\t0\n")

    def test_header_detected_and_remapped(self):
        # permuted header: positive column first
        text = (
            "lemma\tpositive\tnegative\tanger\tanticipation\tdisgust\tfear\tjoy\tsadness\tsurprise\ttrust\n"
            "gut\t1\t0\t0\t0\t0\t0\t1\t0\t0\t0\n"
        )
        lex = parse_lexicon(text)
        v = scores_of(lex, "gut")
        assert v["positive"] == 1 and v["joy"] == 1 and v["anger"] == 0

    def test_unknown_header_column(self):
        text = "lemma\tbogus\tnegative\tanger\tanticipation\tdisgust\tfear\tjoy\tsadness\tsurprise\ttrust\n"
        with pytest.raises(LexiconError, match="bogus"):
            parse_lexicon(text)

    def test_nfc_normalization_applied(self):
        # decomposed u + combining diaeresis collapses to the NFC form
        decomposed = "über"
        lex = parse_lexicon(decomposed + "\t0\t0\t0\t0\t0\t0\t1\t0\t0\t0\n")
        assert "über" in lex.entries

    def test_lookup_missing_returns_none(self, table1_lexicon):
        assert table1_lexicon.entries.get("xyzzy") is None


class TestAgainstReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lexicon_texts())
    @example("w\t00\t\t0\t0\t0\t0\t0\t0\t0\t0\n")
    @example("v\t1\t0\t0\t0\t0\t0\t0\t0\t0\t0\nw\t00\t\t0\t0\t0\t0\t0\t0\t0\t0\n")
    @example("w\t1\t0\t0\t0\t0\t0\t0\t0\t0\t0\r\n\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\r\n")
    def test_same_entries_scores_and_first_error(self, text):
        assert outcome(parse_lexicon, text) == outcome(reference_parse_lexicon, text)

    def test_empty_lemma_rejected(self):
        with pytest.raises(LexiconError, match="^line 3: empty lemma$"):
            parse_lexicon(TABLE1_TSV.replace("Zufall", ""))


class TestLoadFile:
    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + TABLE1_TSV.encode("utf-8"))
        assert list(load_lexicon_file(path).entries) == ["verabscheuen", "bewundernswert", "Zufall"]

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        with pytest.raises(LexiconError) as info:
            load_lexicon_file(path)
        assert str(info.value).startswith(f"{path}: line 1: expected 11")

    def test_decoding_error_counts_from_the_start_of_the_file(self, tmp_path):
        # The reader decodes 8 KB chunks; the bad byte sits past the first one.
        path = tmp_path / "lexicon.tsv"
        good = "".join(f"w{i}\t0\t0\t0\t0\t1\t0\t1\t0\t0\t0\r\n" for i in range(700))
        data = b"\xef\xbb\xbf" + good.encode("utf-8") + b"w\xff\t" + b"\t".join([b"0"] * 10) + b"\n"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        assert offset > 8192
        with pytest.raises(LexiconError) as info:
            load_lexicon_file(path)
        assert str(info.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position {offset}: invalid start byte (line 701)"
        )


class TestInvariants:
    def test_polarity_consistency(self, table1_lexicon):
        scores = table1_lexicon.scores
        np.testing.assert_array_equal(scores[:, POLARITY_INDEX], scores[:, 0] - scores[:, 1])

    def test_roundtrip_identity(self, table1_lexicon):
        text = lexicon_to_text(table1_lexicon)
        again = parse_lexicon(text)
        assert again.entries == table1_lexicon.entries
        np.testing.assert_array_equal(again.scores, table1_lexicon.scores)

    @given(
        st.dictionaries(
            st.text(alphabet=st.characters(categories=("Ll", "Lu")), min_size=1, max_size=8),
            st.lists(st.integers(0, 1), min_size=10, max_size=10),
            max_size=20,
        )
    )
    def test_roundtrip_random_lexicons(self, rows):
        lines = [
            lemma + "\t" + "\t".join(map(str, bits)) for lemma, bits in rows.items()
        ]
        # NFC can merge distinct raw keys; skip such collisions
        try:
            lex = parse_lexicon("\n".join(lines) + ("\n" if lines else ""))
        except LexiconError:
            return
        again = parse_lexicon(lexicon_to_text(lex))
        assert again.entries == lex.entries
        np.testing.assert_array_equal(again.scores, lex.scores)
        assert lex.scores.shape == (lex.size, len(DIMENSIONS))
        np.testing.assert_array_equal(lex.scores[:, POLARITY_INDEX], lex.scores[:, 0] - lex.scores[:, 1])
        binary = np.delete(lex.scores, POLARITY_INDEX, axis=1)
        assert set(binary.ravel()) <= {0.0, 1.0}


class TestSentimentVector:
    """A sentiment vector is one row of the score matrix, in canonical order."""

    def test_dimension_order_fixed(self):
        assert DIMENSIONS[:3] == ("positive", "negative", "polarity")
        assert len(DIMENSIONS) == 11
        assert len(FILE_DIMENSIONS) == 10
