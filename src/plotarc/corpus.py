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
from itertools import accumulate
from pathlib import Path

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


@dataclass(frozen=True)
class Novel:
    metadata: NovelMetadata
    lemmas: tuple[str, ...]


@dataclass(frozen=True)
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
    ``tokenize`` accepts any ``str``.
    """
    rest = text.encode("utf-8", "surrogatepass").translate(None, _NEVER_PUNCT)
    punct = "".join(filter(_is_punct, set(rest.decode("utf-8", "surrogatepass"))))
    if not punct:
        return text.split()
    return [token for raw in text.split() if (token := raw.strip(punct))]


def _read_text(path) -> str:
    """The file decoded as ``utf-8-sig``; a decoding error names the file and line."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusError(decoding_error(path, exc)) from None


def load_lemma_map(path) -> dict[str, str]:
    """Read a ``surface<TAB>lemma`` TSV, NFC-normalized line by line. A line without
    two non-empty cells, or with a duplicate surface form, is an error naming the
    line. All surface forms of one lemma share one lemma string."""
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
    return rows


def load_corpus(text_dir, metadata_file, lemma_map: dict[str, str] | None = None) -> Corpus:
    """Load, tokenize, and lemmatize all novels listed in the metadata table.

    Every token of one surface form shares one lemma string, so a loaded
    corpus costs a pointer per token plus its distinct forms.
    """
    text_dir = Path(text_dir)
    # A copy of the map, so the caller's map stays unchanged: each unmapped
    # surface form is stored as its own lemma on first sight and reused after.
    lemma_of = dict(lemma_map or {})
    novels = []
    for meta in load_metadata(metadata_file):
        text_path = text_dir / f"{meta.id}.txt"
        if not text_path.is_file():
            raise CorpusError(f"missing text file for novel {meta.id!r}: {text_path}")
        tokens = tokenize(unicodedata.normalize("NFC", _read_text(text_path)))
        lemmas = tuple(map(lemma_of.setdefault, tokens, tokens))
        if not lemmas:
            raise CorpusError(f"novel {meta.id!r} has no tokens")
        novels.append(Novel(meta, lemmas))
    return Corpus(tuple(novels))


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


def generate_synthetic_corpus(
    seed: int,
    n_novels: int,
    tokens_per_novel: int,
    ending_len_segments: int,
    lexicon: SentimentLexicon,
) -> Corpus:
    """Deterministically generate a balanced corpus with a planted ending.

    Happy novels draw their ending-region sentiment tokens mostly from
    positive-polarity lexicon entries, unhappy ones from negative entries;
    body regions are a shared mix. The planted region covers the final
    ``ending_len_segments`` of the standard 75-segment split.
    """
    if n_novels % 2 != 0:
        raise CorpusError("n_novels must be even (classes are balanced by construction)")
    if tokens_per_novel < _N_SEGMENTS_PLANTED:
        raise CorpusError(f"tokens_per_novel must be >= {_N_SEGMENTS_PLANTED}")
    if not 1 <= ending_len_segments <= 10:
        raise CorpusError("ending_len_segments must be in [1, 10]")

    positives = sorted(lexicon.lemmas_by_polarity(+1))
    negatives = sorted(lexicon.lemmas_by_polarity(-1))
    all_lemmas = sorted(lexicon.entries)
    if not positives or not negatives:
        raise CorpusError("lexicon must contain at least one positive and one negative entry")

    rng = random.Random(seed)
    # choice() and randrange() both draw one _randbelow(len), so choosing from
    # the prebuilt fillers consumes the same stream as formatting one per token.
    random_, choice = rng.random, rng.choice
    fillers = [f"filler{k}" for k in range(_N_FILLERS)]
    bounds = segment_bounds(tokens_per_novel, _N_SEGMENTS_PLANTED)
    ending_start = bounds[_N_SEGMENTS_PLANTED - ending_len_segments]

    novels = []
    for i in range(n_novels):
        happy = i % 2 == 0
        signed_pool = positives if happy else negatives
        body = [
            choice(all_lemmas) if random_() < _BODY_MATCH_RATE else choice(fillers)
            for _ in range(ending_start)
        ]
        ending = [
            (
                (choice(signed_pool) if random_() < _ENDING_SIGNAL_SHARE else choice(all_lemmas))
                if random_() < _ENDING_MATCH_RATE
                else choice(fillers)
            )
            for _ in range(tokens_per_novel - ending_start)
        ]
        meta = NovelMetadata(
            id=f"synth-{i:04d}",
            title=f"Synthetic Novel {i}",
            author="Generator",
            year=1790 + (i * 13) % 120,
            label=happy,
        )
        novels.append(Novel(meta, tuple(body + ending)))
    return Corpus(tuple(novels))


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
