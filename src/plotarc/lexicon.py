"""Emotion-lexicon parsing and 11-dimensional sentiment lookups.

The lexicon file is UTF-8 TSV: one lemma per row followed by ten binary
columns (two valence dimensions and eight emotions). Polarity is not part
of the file; it is derived as positive minus negative and stored as the
third column of the lexicon's score matrix.
"""

from __future__ import annotations

import io
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
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

# Header cells are matched case-insensitively against FILE_DIMENSIONS,
# after these aliases, so that exports with renamed columns still align.
_HEADER_ALIASES = {"pos": "positive", "neg": "negative"}


class LexiconError(ValueError):
    """Raised for malformed lexicon input."""


@dataclass(frozen=True, eq=False)
class SentimentLexicon:
    """Lemma -> row map over a read-only int8 ``(V, 11)`` score matrix.

    Keys are exact and case-sensitive; ``entries`` keeps file order and maps
    each lemma to its row of ``scores`` (canonical dimension order). Each
    score is 0 or 1, and polarity -1, 0 or 1.
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


# The ten dimension cells of a data row, read from the tab that ends its
# lemma: each exactly "0" or "1". Line 1 fails this test when it is a header.
_BINARY_CELLS = re.compile(r"(?:\t[01]){%d}" % len(FILE_DIMENSIONS))


def parse_lexicon(source: TextIO | str) -> SentimentLexicon:
    """Parse a TSV lexicon stream into a :class:`SentimentLexicon`.

    The header row is optional. When present, its cells are mapped onto the
    ten canonical dimensions (case-insensitive, a few aliases accepted), so
    exports with permuted columns parse correctly. Without a header the
    canonical file-column order is assumed. An empty or duplicate lemma and a
    cell other than ``0``/``1`` are errors naming the line. One regex match
    checks each row; one ``np.frombuffer`` turns all rows into scores.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    entries: dict[str, int] = {}
    tails = bytearray()  # each data row's "\t0\t1..." cells; its digits are the odd bytes
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
        binary = _BINARY_CELLS.fullmatch(line, len(cells[0]))
        if lineno == 1 and not binary:
            mapped = []
            for cell in cells[1:]:
                key = cell.strip().casefold()
                name = _HEADER_ALIASES.get(key, key)
                if name not in FILE_DIMENSIONS:
                    raise LexiconError(f"line 1: unrecognized header column {cell!r}")
                mapped.append(name)
            if len(set(mapped)) != len(mapped):
                raise LexiconError("line 1: duplicate header columns")
            targets = [DIMENSIONS.index(name) for name in mapped]
            continue

        lemma = unicodedata.normalize("NFC", cells[0])
        if not lemma:
            raise LexiconError(f"line {lineno}: empty lemma")
        if lemma in entries:
            raise LexiconError(f"line {lineno}: duplicate lemma {lemma!r}")
        if not binary:
            cell, target = next((c, t) for c, t in zip(cells[1:], targets) if c not in ("0", "1"))
            raise LexiconError(f"line {lineno}: non-binary value {cell!r} in column {DIMENSIONS[target]!r}")
        entries[lemma] = len(entries)
        tails += binary.group().encode("ascii")

    digits = np.frombuffer(tails, dtype=np.uint8).reshape(-1, 2 * len(FILE_DIMENSIONS))
    scores = np.zeros((len(entries), len(DIMENSIONS)), dtype=np.int8)
    scores[:, targets] = digits[:, 1::2] - ord("0")
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
            lexicon = parse_lexicon(fh)
        except LexiconError as exc:
            raise LexiconError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise LexiconError(decoding_error(path, exc)) from None
    if not lexicon.size:
        raise LexiconError(f"{path}: no lexicon entries")
    return lexicon


def decoding_error(path, exc: UnicodeDecodeError) -> str:
    """``<path>: <exc> (line <n>)`` at the first undecodable byte, its position counted
    from the start of the file (a streaming decoder counts from its read chunk)."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    before = data[: exc.start]  # text mode ends a line at "\n", "\r\n" or "\r"
    line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
    return f"{path}: {exc} (line {line})"
