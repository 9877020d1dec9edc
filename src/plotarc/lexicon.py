"""Emotion-lexicon parsing and 11-dimensional sentiment lookups.

The lexicon file is UTF-8 TSV: one lemma per row followed by ten binary
columns (two valence dimensions and eight emotions). Polarity is not part
of the file; it is derived as positive minus negative and stored as the
third column of the lexicon's score matrix.
"""

from __future__ import annotations

import io
import unicodedata
from dataclasses import dataclass
from typing import TextIO

import numpy as np

# Canonical component order used everywhere vectors are flattened into
# feature blocks. Index 2 (polarity) is derived, never read from a file.
DIMENSIONS = (
    "positive",
    "negative",
    "polarity",
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "sadness",
    "surprise",
    "trust",
)

POLARITY_INDEX = DIMENSIONS.index("polarity")

# The ten file-level dimensions in canonical file-column order.
FILE_DIMENSIONS = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "negative",
    "positive",
    "sadness",
    "surprise",
    "trust",
)

# Header cells are matched case-insensitively against these aliases so
# that exports with renamed columns still align correctly.
_HEADER_ALIASES = {
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


class LexiconError(ValueError):
    """Raised for malformed lexicon input."""


@dataclass(frozen=True, eq=False)
class SentimentLexicon:
    """Lemma -> row map over a read-only ``(V, 11)`` score matrix.

    Keys are exact and case-sensitive; ``entries`` keeps file order and maps
    each lemma to its row of ``scores`` (canonical dimension order).
    """

    entries: dict[str, int]
    scores: np.ndarray

    @property
    def size(self) -> int:
        return len(self.entries)

    def lemmas_by_polarity(self, sign: int) -> list[str]:
        """All lemmas whose polarity has the given sign (-1, 0, or +1)."""
        signs = np.sign(self.scores[:, POLARITY_INDEX]).tolist()
        return [lemma for lemma, row in self.entries.items() if signs[row] == sign]


def _looks_like_header(cells: list[str]) -> bool:
    # A data row has binary dimension cells; anything else in the
    # dimension columns marks row 1 as a header.
    return any(cell not in ("0", "1") for cell in cells[1:])


def parse_lexicon(source: TextIO | str) -> SentimentLexicon:
    """Parse a TSV lexicon stream into a :class:`SentimentLexicon`.

    The header row is optional. When present, its cells are mapped onto the
    ten canonical dimensions (case-insensitive, a few aliases accepted), so
    exports with permuted columns parse correctly. Without a header the
    canonical file-column order is assumed.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    entries: dict[str, int] = {}
    rows: list[list[int]] = []
    # The row index each dimension column is written to, in column order.
    targets = [DIMENSIONS.index(name) for name in FILE_DIMENSIONS]
    expected_cols = 1 + len(FILE_DIMENSIONS)

    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != expected_cols:
            raise LexiconError(
                f"line {lineno}: expected {expected_cols} tab-separated columns, got {len(cells)}"
            )
        if lineno == 1 and _looks_like_header(cells):
            mapped = []
            for cell in cells[1:]:
                key = cell.strip().casefold()
                if key not in _HEADER_ALIASES:
                    raise LexiconError(f"line 1: unrecognized header column {cell!r}")
                mapped.append(_HEADER_ALIASES[key])
            if len(set(mapped)) != len(mapped):
                raise LexiconError("line 1: duplicate header columns")
            targets = [DIMENSIONS.index(name) for name in mapped]
            continue

        lemma = unicodedata.normalize("NFC", cells[0])
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

    scores = np.array(rows, dtype=float).reshape(len(rows), len(DIMENSIONS))
    scores[:, POLARITY_INDEX] = (
        scores[:, DIMENSIONS.index("positive")] - scores[:, DIMENSIONS.index("negative")]
    )
    scores.flags.writeable = False
    return SentimentLexicon(entries, scores)


def write_lexicon(lexicon: SentimentLexicon, stream: TextIO) -> None:
    """Canonical writer: header plus one row per lemma in insertion order."""
    stream.write("lemma\t" + "\t".join(FILE_DIMENSIONS) + "\n")
    file_columns = [DIMENSIONS.index(name) for name in FILE_DIMENSIONS]
    cells = lexicon.scores[:, file_columns].astype(int).tolist()
    for lemma, row in lexicon.entries.items():
        stream.write(lemma + "\t" + "\t".join(map(str, cells[row])) + "\n")


def lexicon_to_text(lexicon: SentimentLexicon) -> str:
    buf = io.StringIO()
    write_lexicon(lexicon, buf)
    return buf.getvalue()


def load_lexicon_file(path) -> SentimentLexicon:
    # utf-8-sig drops a leading byte-order mark, which would otherwise end up
    # in the first lemma and keep it from ever matching.
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return parse_lexicon(fh)
        except (LexiconError, UnicodeDecodeError) as exc:
            raise LexiconError(f"{path}: {exc}") from None
