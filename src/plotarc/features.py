"""Segment profiles: per-segment sentiment averages.

Each novel is split into ``n_segments`` equal contiguous blocks (remainder
tokens go to the earliest blocks, see :func:`plotarc.corpus.segment_bounds`).
Per segment we average the 11 sentiment scores of the lexicon-matched
tokens. :func:`plotarc.experiments.feature_matrix` splits the segment axis
into the sections the feature sets are built from.

The profile cache (:func:`write_profile_cache`, ``plotarc featurize``'s
``profiles.csv``) has one row per novel segment, in corpus order:
``novel_id,segment_index,<11 scores>,matched_count``. Scores are written as
``%.17g``: every finite score reads back bit for bit, ``-0`` included;
infinities are written ``inf`` and ``-inf``, and every NaN ``nan``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from plotarc.corpus import Corpus, segment_bounds
from plotarc.lexicon import DIMENSIONS, SentimentLexicon

N_DIMS = len(DIMENSIONS)


class FeaturizationError(ValueError):
    pass


@dataclass(frozen=True)
class SegmentProfile:
    """Per-novel (n_segments x 11) matrix of segment-average sentiment scores."""

    novel_id: str
    segment_vectors: np.ndarray  # shape (n_segments, 11)
    matched_counts: np.ndarray  # shape (n_segments,), lexicon hits per segment


def compute_profiles(
    corpus: Corpus, lexicon: SentimentLexicon, out: np.ndarray
) -> list[SegmentProfile]:
    """Segment each novel and average its lexicon-matched scores per segment.

    A segment without lexicon matches gets the zero vector. ``out`` is a
    ``(novels, n_segments, 11)`` float array: novel ``i``'s segment vectors
    are written to ``out[i]``, and its profile holds a read-only view of them.
    Every novel must hold ``n_segments`` lemmas or more (``prepare_inputs`` checks).
    The lexicon is looked up once per distinct lemma, not once per token. The
    int8 scores are summed in int64, so each sum is exact and each mean is
    the float64 quotient of two integers.
    """
    n_segments = out.shape[1]
    vocabulary = corpus.vocabulary
    # Unknown lemmas index one extra zero row, int8 like the scores (a float
    # row would widen the table). Every segment holds at least one token,
    # which np.add.reduceat needs: it returns the element at the start index,
    # not zero, for an empty slice.
    unknown = lexicon.size
    table = np.vstack([lexicon.scores, np.zeros(N_DIMS, dtype=np.int8)])
    rows = np.fromiter(
        map(lexicon.entries.get, vocabulary, repeat(unknown)), dtype=np.intp, count=len(vocabulary)
    )
    profiles = []
    for novel, vectors in zip(corpus.novels, out, strict=True):
        novel_rows = rows[novel.lemmas.ids]
        starts = segment_bounds(len(novel_rows), n_segments)[:-1]
        counts = np.add.reduceat(novel_rows != unknown, starts)
        sums = np.add.reduceat(table[novel_rows], starts, dtype=np.int64)
        # A segment without matches sums only zero rows: 0 / 1 keeps it zero.
        np.divide(sums, np.maximum(counts, 1)[:, None], out=vectors)
        vectors.flags.writeable = False
        counts.flags.writeable = False
        profiles.append(SegmentProfile(novel.metadata.id, vectors, counts))
    return profiles


# ---------------------------------------------------------------------------
# Profile cache CSV (one row per novel segment).
# ---------------------------------------------------------------------------

CACHE_HEADER = ["novel_id", "segment_index"] + list(DIMENSIONS) + ["matched_count"]


def _csv_cell(value: str) -> str:
    """``value`` as ``csv.writer`` writes it in a row of several cells."""
    buf = io.StringIO()
    # A lone empty cell would be written as '""'; the extra cell avoids that.
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def write_profile_cache(profiles, stream) -> None:
    """Write the profile cache (see the module docstring) to ``stream``.

    A novel's means, quotients of small integers, hold few distinct values
    (about 120 of 825 on a 75-segment novel of 5 000 tokens): each distinct bit
    pattern (so ``-0.0`` is not ``0.0``) is formatted once per novel and
    gathered into its cells.
    """
    csv.writer(stream, lineterminator="\n").writerow(CACHE_HEADER)
    for profile in profiles:
        vectors = profile.segment_vectors
        bits, inverse = np.unique(vectors.view(np.int64), return_inverse=True)
        cells = np.array([format(v, ".17g") for v in bits.view(np.float64).tolist()], dtype=object)
        rows = cells[inverse.reshape(vectors.shape)].tolist()
        head = _csv_cell(profile.novel_id) + ","
        counts = profile.matched_counts.tolist()
        stream.write("".join([f"{head}{i},{','.join(row)},{count}\n"
                              for i, (row, count) in enumerate(zip(rows, counts))]))
