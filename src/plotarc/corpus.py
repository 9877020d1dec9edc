"""Corpus loading, tokenization, lemma mapping, and synthetic-corpus generation.

A corpus on disk is a directory of ``<id>.txt`` plain-text files plus a TSV
metadata table (``id  title  author  year  label``). Labels are the literal
strings ``happy`` / ``unhappy``. Lemmatization is a dictionary lookup with
identity fallback, so the pipeline stays deterministic and has no model
dependencies. Every reader decodes ``utf-8-sig``: a leading byte-order mark
is dropped instead of becoming part of the first token, surface form or
header cell. Novel text and lemma maps are NFC-normalized like lexicon lemmas;
metadata is not, because ids name files.
"""

from __future__ import annotations

import random
import string
import unicodedata
from dataclasses import dataclass
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np

from plotarc.lexicon import SentimentLexicon, decoding_error, parse_lexicon

LABEL_HAPPY = "happy"
LABEL_UNHAPPY = "unhappy"

METADATA_COLUMNS = ("id", "title", "author", "year", "label")


class CorpusError(ValueError):
    """Raised for malformed corpus input or invalid generator parameters."""


@dataclass(frozen=True)
class NovelMetadata:
    id: str
    title: str
    author: str
    year: int
    label: bool  # True = happy ending


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Lemmas:
    """A novel's lemmas: unsigned integer ids into a vocabulary, a read-only object
    array of lemma strings that every novel of the corpus shares.

    ``len`` counts the tokens; iteration yields their strings, gathered once.
    """

    vocabulary: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.vocabulary[self.ids].tolist())


@dataclass(frozen=True, eq=False)
class Novel:
    """A novel's metadata and lemmas. ``load_corpus`` and ``generate_synthetic_corpus``
    give ``Lemmas``; ``write_corpus`` also writes any sequence of strings.
    Novels and corpora compare by identity, as ``Lemmas`` do."""

    metadata: NovelMetadata
    lemmas: Lemmas


@dataclass(frozen=True, eq=False)
class Corpus:
    novels: tuple[Novel, ...]

    @property
    def total(self) -> int:
        return len(self.novels)

    @property
    def happy(self) -> int:
        return sum(1 for n in self.novels if n.metadata.label)

    @property
    def unhappy(self) -> int:
        return self.total - self.happy

    @property
    def vocabulary(self) -> np.ndarray:
        """The vocabulary that every novel's ``lemmas.ids`` index; novels of two are an error."""
        if not self.novels:
            return np.empty(0, dtype=object)
        vocabulary = self.novels[0].lemmas.vocabulary
        if any(novel.lemmas.vocabulary is not vocabulary for novel in self.novels):
            raise CorpusError("the novels of one corpus must share one vocabulary")
        return vocabulary


def segment_bounds(n_tokens: int, n_segments: int) -> list[int]:
    """The ``n_segments + 1`` boundaries of an equal contiguous split.

    With ``n_tokens = q * n_segments + r`` the first ``r`` segments get
    ``q + 1`` tokens and the rest ``q``; segment ``i`` is
    ``tokens[bounds[i]:bounds[i + 1]]``.
    """
    if n_segments < 1:
        raise CorpusError(f"the number of segments must be at least 1, got {n_segments}")
    q, r = divmod(n_tokens, n_segments)
    return list(accumulate([q + 1] * r + [q] * (n_segments - r), initial=0))


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


# ASCII letters, digits and whitespace: none of them is Unicode category P.
_NEVER_PUNCT = (string.ascii_letters + string.digits + string.whitespace).encode("ascii")


def tokenize(text: str) -> list[str]:
    """Split on whitespace and strip leading/trailing punctuation per token.

    Punctuation is Unicode category P. Every such character at a token edge
    occurs in the text, so stripping the text's own punctuation is exact. To
    find it without a Python step per character, one bytes pass deletes the
    ASCII letters, digits and whitespace first, and only the distinct
    leftovers are tested. That is exact too: none of the deleted characters
    is category P, and deleting single ASCII bytes leaves every multi-byte
    UTF-8 sequence whole. ``surrogatepass`` round-trips lone surrogates, so
    ``tokenize`` accepts any ``str``. The strips, and the dropping of tokens
    they empty, run as C-level ``map`` and ``filter`` loops.
    """
    rest = text.encode("utf-8", "surrogatepass").translate(None, _NEVER_PUNCT)
    punct = "".join(filter(_is_punct, set(rest.decode("utf-8", "surrogatepass"))))
    if not punct:
        return text.split()
    return list(filter(None, map(str.strip, text.split(), repeat(punct))))


def _read_text(path) -> str:
    """The file decoded as ``utf-8-sig``; a decoding error names the file and line."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusError(decoding_error(path, exc)) from None


def load_lemma_map(path) -> dict[str, str]:
    """Read a ``surface<TAB>lemma`` TSV, NFC-normalized line by line. A line without
    two non-empty cells, with a duplicate surface form, or with a surface form no
    token can equal (whitespace in it, or punctuation at an edge: ``tokenize``
    splits and strips those) is an error naming the line. All surface forms of
    one lemma share one lemma string."""
    mapping: dict[str, str] = {}
    lemmas: dict[str, str] = {}
    try:
        # Text mode turns "\r\n" and "\r" line ends into "\n".
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                cells = unicodedata.normalize("NFC", line.rstrip("\n")).split("\t")
                if cells == [""]:
                    continue
                if len(cells) != 2:
                    raise CorpusError(f"{path}: line {lineno}: expected 2 columns, got {len(cells)}")
                surface, lemma = cells
                if not surface or not lemma:
                    raise CorpusError(f"{path}: line {lineno}: empty cell")
                # Letters and digits are neither whitespace nor punctuation, so
                # isalnum() passes most forms in one C call.
                if not surface.isalnum() and tokenize(surface) != [surface]:
                    raise CorpusError(
                        f"{path}: line {lineno}: surface form {surface!r} has whitespace or edge "
                        "punctuation, so no token can equal it"
                    )
                if surface in mapping:
                    raise CorpusError(f"{path}: line {lineno}: duplicate surface form {surface!r}")
                mapping[surface] = lemmas.setdefault(lemma, lemma)
    except UnicodeDecodeError as exc:
        raise CorpusError(decoding_error(path, exc)) from None
    return mapping


def _parse_label(cell: str, where: str) -> bool:
    if cell == LABEL_HAPPY:
        return True
    if cell == LABEL_UNHAPPY:
        return False
    raise CorpusError(f"{where}: label must be {LABEL_HAPPY!r} or {LABEL_UNHAPPY!r}, got {cell!r}")


def load_metadata(metadata_file) -> list[NovelMetadata]:
    rows: list[NovelMetadata] = []
    seen_ids: set[str] = set()
    header_line, *lines = _read_text(metadata_file).split("\n")
    header = header_line.split("\t")
    if tuple(header) != METADATA_COLUMNS:
        raise CorpusError(
            f"{metadata_file}: header must be {list(METADATA_COLUMNS)}, got {header}"
        )
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(METADATA_COLUMNS):
            raise CorpusError(
                f"{metadata_file}: row {lineno}: expected {len(METADATA_COLUMNS)} columns"
            )
        novel_id, title, author, year_cell, label_cell = cells
        # The id names the file <id>.txt inside the corpus directory.
        if novel_id in ("", ".", "..") or "/" in novel_id or "\\" in novel_id:
            raise CorpusError(f"{metadata_file}: row {lineno}: id {novel_id!r} is not a plain file name")
        if novel_id in seen_ids:
            raise CorpusError(f"{metadata_file}: row {lineno}: duplicate id {novel_id!r}")
        seen_ids.add(novel_id)
        # int() alone would also take "١٨٣٠", "1_840" and " 1850 ".
        if not (year_cell.isascii() and year_cell.isdigit()):
            raise CorpusError(
                f"{metadata_file}: row {lineno}: year must be ASCII digits, got {year_cell!r}"
            )
        try:
            year = int(year_cell)
        except ValueError:  # more digits than int() converts
            raise CorpusError(f"{metadata_file}: row {lineno}: unparseable year") from None
        if year <= 0:
            raise CorpusError(f"{metadata_file}: row {lineno}: year must be positive")
        label = _parse_label(label_cell, f"{metadata_file}: row {lineno}")
        rows.append(NovelMetadata(novel_id, title, author, year, label))
    if not rows:
        raise CorpusError(f"{metadata_file}: no novels listed")
    return rows


class _Interner(dict):
    """Surface form -> int id of its lemma in ``vocabulary``, one id per distinct lemma.

    The lemma map's entries are made up front, keyed by the map's own strings,
    and so is an entry for each of its lemmas that is not itself a surface
    form: that form is unmapped, so it is its own lemma. Any other form is
    unmapped and new; it gets its entry on first sight. Each token then
    costs one dict probe.
    """

    def __init__(self, lemma_map: dict[str, str]):
        lemma_ids: dict[str, int] = {}
        for surface, lemma in lemma_map.items():
            self[surface] = lemma_ids.setdefault(lemma, len(lemma_ids))
        for lemma, lemma_id in lemma_ids.items():
            self.setdefault(lemma, lemma_id)
        self.vocabulary = list(lemma_ids)

    def __missing__(self, form: str) -> int:
        self[form] = lemma_id = len(self.vocabulary)
        self.vocabulary.append(form)
        return lemma_id

    @property
    def id_type(self) -> np.dtype:
        """The narrowest unsigned type that holds every id so far (uint16 up to 65 536 forms)."""
        return np.min_scalar_type(len(self.vocabulary) - 1)

    def ids(self, tokens) -> np.ndarray:
        """The tokens' ids as ``id_type``: later novels may get wider ones."""
        ids = np.fromiter(map(self.__getitem__, tokens), dtype=np.int32, count=len(tokens))
        return ids.astype(self.id_type)

    def corpus(self, novels) -> Corpus:
        """A corpus of ``(metadata, ids)`` pairs whose ``Lemmas`` share the vocabulary
        interned so far, so call it after the last novel. Ids and vocabulary become read-only."""
        vocabulary = np.array(self.vocabulary, dtype=object)
        vocabulary.flags.writeable = False
        for _, ids in novels:
            ids.flags.writeable = False
        return Corpus(tuple(Novel(meta, Lemmas(vocabulary, ids)) for meta, ids in novels))


def load_corpus(text_dir, metadata_file, lemma_map: dict[str, str] | None = None) -> Corpus:
    """Load, tokenize, and lemmatize all novels listed in the metadata table.

    Each novel's ``Lemmas`` are ids into one vocabulary of the corpus's distinct
    lemmas (see ``_Interner.ids``), so a loaded corpus costs 2 bytes per token up
    to 65 536 forms, plus its distinct forms. The caller's lemma map is read, never changed.
    """
    text_dir = Path(text_dir)
    interner = _Interner(lemma_map or {})
    loaded = []
    for meta in load_metadata(metadata_file):
        text_path = text_dir / f"{meta.id}.txt"
        if not text_path.is_file():
            raise CorpusError(f"missing text file for novel {meta.id!r}: {text_path}")
        ids = interner.ids(tokenize(unicodedata.normalize("NFC", _read_text(text_path))))
        if not len(ids):
            raise CorpusError(f"novel {meta.id!r} has no tokens")
        loaded.append((meta, ids))
    return interner.corpus(loaded)


# ---------------------------------------------------------------------------
# Synthetic corpora with a planted sentiment-signed ending region.
# ---------------------------------------------------------------------------

# Body regions mix lexicon-matched and filler tokens so that the
# featurizer's OOV policy is exercised at realistic sparsity.
_BODY_MATCH_RATE = 0.30
_ENDING_MATCH_RATE = 0.40
# Within the ending region's matched tokens, this share comes from the
# class-signed pool; the rest is drawn from the whole lexicon, which keeps
# single-segment averages noisy enough that very short final sections are
# not already perfectly separable.
_ENDING_SIGNAL_SHARE = 0.25

_N_SEGMENTS_PLANTED = 75
_N_FILLERS = 5000


def _check_synthetic(seed: int, n_novels: int, tokens_per_novel: int, ending_len_segments: int) -> None:
    """Raise the error :func:`generate_synthetic_corpus` raises for these settings under any lexicon."""
    if seed < 0:
        raise CorpusError(f"seed must be a non-negative integer, got {seed}")
    if n_novels < 2 or n_novels % 2 != 0:
        raise CorpusError(
            f"n_novels must be a positive even number (classes are balanced by construction), got {n_novels}"
        )
    if tokens_per_novel < _N_SEGMENTS_PLANTED:
        raise CorpusError(f"tokens_per_novel must be >= {_N_SEGMENTS_PLANTED}")
    if not 1 <= ending_len_segments <= 10:
        raise CorpusError("ending_len_segments must be in [1, 10]")


def generate_synthetic_corpus(
    seed: int,
    n_novels: int,
    tokens_per_novel: int,
    ending_len_segments: int,
    lexicon: SentimentLexicon,
) -> Corpus:
    """Deterministically generate a balanced corpus with a planted ending.

    Even-indexed novels are happy, odd ones unhappy. The planted ending is
    the final ``ending_len_segments`` of the standard 75-segment split: there
    40 % of tokens are lexicon lemmas, a quarter of those drawn from the
    novel's signed pool (positive-polarity lemmas if happy, negative if
    not), the rest from the whole lexicon. Before it, 30 % are lexicon
    lemmas. Every other token is one of 5 000 ``filler<k>`` words.

    Novels hold ``Lemmas`` as loaded ones do, into one vocabulary: the sorted
    lexicon lemmas, then each ``filler<k>`` not among them. A negative seed
    is refused, since ``random.Random`` would seed with its absolute value.

    The draw order is the stream contract: for each novel in turn, for each
    token in turn, one ``random()`` picks lexicon or fillers (compared with
    0.30 in the body, 0.40 in the ending); an ending token that picks the
    lexicon takes a second ``random()`` (< 0.25: signed pool). Then one index
    into the chosen pool is drawn by ``Random.choice``'s rule:
    ``r = getrandbits(len(pool).bit_length())``, drawn again while
    ``r >= len(pool)``. The rule is written out, so no Python function runs
    per token: a paper-scale corpus (212 x 20 000 tokens) takes 0.8-1.4 s on
    a 2-core Xeon, against 2.4-2.9 s through ``rng.choice``.
    An option added to the generator must draw only when enabled, so that
    the default bytes do not move.
    """
    _check_synthetic(seed, n_novels, tokens_per_novel, ending_len_segments)

    positives = sorted(lexicon.lemmas_by_polarity(+1))
    negatives = sorted(lexicon.lemmas_by_polarity(-1))
    all_lemmas = sorted(lexicon.entries)
    if not positives or not negatives:
        raise CorpusError("lexicon must contain at least one positive and one negative entry")

    rng = random.Random(seed)
    random_, getrandbits = rng.random, rng.getrandbits
    fillers = [f"filler{k}" for k in range(_N_FILLERS)]
    interner = _Interner({})
    # Each pool's ids with its length and the bit count choice() draws for it.
    # The lexicon comes first, so it takes ids 0, 1, ... in sorted order.
    lexicon_pool, filler_pool, positive_pool, negative_pool = (
        (list(map(interner.__getitem__, pool)), len(pool), len(pool).bit_length())
        for pool in (all_lemmas, fillers, positives, negatives)
    )
    bounds = segment_bounds(tokens_per_novel, _N_SEGMENTS_PLANTED)
    ending_start = bounds[_N_SEGMENTS_PLANTED - ending_len_segments]

    novels = []
    for i in range(n_novels):
        happy = i % 2 == 0
        signed_pool = positive_pool if happy else negative_pool
        tokens = []
        for position in range(tokens_per_novel):
            if position < ending_start:
                pool, n, k = lexicon_pool if random_() < _BODY_MATCH_RATE else filler_pool
            elif random_() < _ENDING_MATCH_RATE:
                pool, n, k = signed_pool if random_() < _ENDING_SIGNAL_SHARE else lexicon_pool
            else:
                pool, n, k = filler_pool
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            tokens.append(pool[r])
        meta = NovelMetadata(
            id=f"synth-{i:04d}",
            title=f"Synthetic Novel {i}",
            author="Generator",
            year=1790 + (i * 13) % 120,
            label=happy,
        )
        novels.append((meta, np.fromiter(tokens, dtype=interner.id_type, count=tokens_per_novel)))
    return interner.corpus(novels)


def write_corpus(corpus: Corpus, out_dir) -> None:
    """Write texts and metadata TSV in the on-disk corpus format."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["\t".join(METADATA_COLUMNS)]
    for novel in corpus.novels:
        meta = novel.metadata
        (out_dir / f"{meta.id}.txt").write_text(" ".join(novel.lemmas) + "\n", encoding="utf-8")
        label = LABEL_HAPPY if meta.label else LABEL_UNHAPPY
        lines.append("\t".join([meta.id, meta.title, meta.author, str(meta.year), label]))
    (out_dir / "metadata.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


_DEMO_ROWS = """\
wunderbar\t0\t0\t0\t0\t1\t0\t1\t0\t0\t1
herrlich\t0\t1\t0\t0\t1\t0\t1\t0\t0\t0
gluecklich\t0\t1\t0\t0\t1\t0\t1\t0\t0\t1
freude\t0\t1\t0\t0\t1\t0\t1\t0\t1\t0
liebe\t0\t0\t0\t0\t1\t0\t1\t0\t0\t1
hoffnung\t0\t1\t0\t0\t1\t0\t1\t0\t0\t1
friede\t0\t1\t0\t0\t1\t0\t1\t0\t0\t1
segen\t0\t1\t0\t0\t1\t0\t1\t0\t0\t1
jubel\t0\t1\t0\t0\t1\t0\t1\t1\t1\t0
heiter\t0\t0\t0\t0\t1\t0\t1\t0\t0\t0
schrecklich\t1\t0\t1\t1\t0\t1\t0\t1\t0\t0
furchtbar\t1\t0\t0\t1\t0\t1\t0\t1\t1\t0
elend\t0\t0\t1\t0\t0\t1\t0\t1\t0\t0
tod\t1\t0\t0\t1\t0\t1\t0\t1\t1\t0
verzweiflung\t1\t0\t0\t1\t0\t1\t0\t1\t0\t0
trauer\t0\t0\t0\t0\t0\t1\t0\t1\t0\t0
qual\t1\t0\t0\t1\t0\t1\t0\t1\t0\t0
finster\t0\t0\t0\t1\t0\t1\t0\t1\t0\t0
grauen\t1\t0\t1\t1\t0\t1\t0\t0\t1\t0
bitter\t1\t0\t1\t0\t0\t1\t0\t1\t0\t0
zufall\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0
plötzlich\t0\t1\t0\t0\t0\t0\t0\t0\t1\t0
erwartung\t0\t1\t0\t0\t0\t0\t0\t0\t0\t1
"""


def demo_lexicon() -> SentimentLexicon:
    """Small built-in lexicon (canonical column order, no header) used by
    the synthetic-corpus generator and the examples."""
    return parse_lexicon(_DEMO_ROWS)
