"""The three experiment drivers plus baselines and report serialization.

Every experiment reads a novel's segment vectors through one partition of
the segment axis, set by a single number, the final-section length ``f``:
the final section is the last ``f`` segments, the main section everything
before it, and the late-main section the ``f`` segments just before the
final one. :func:`feature_matrix` is the only code that knows this geometry.

The drivers return results only, a sweep its tuple of :class:`SweepPoint`
values, which :func:`best_points` ranks. The settings that produced them are
the caller's, recorded by :func:`meta_text`. Within one ladder or sweep run
all rows/points share the same fold assignment, making the numbers comparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from plotarc._version import __version__ as _pkg_version
from plotarc.corpus import Corpus
from plotarc.features import (
    N_DIMS,
    FeaturizationError,
    SegmentProfile,
    compute_profiles,
)
from plotarc.lexicon import SentimentLexicon, lexicon_to_text
from plotarc.svm import cross_validate, f1_accuracy

FEATURE_SET_DIMS = {1: 11, 2: 22, 3: 11, 4: 22, 5: 33, 6: 44}


@dataclass(frozen=True)
class ClassifierConfig:
    folds: int = 10
    seed: int = 42
    C: float = 1.0
    epochs: int = 200


@dataclass(frozen=True)
class RunInputs:
    """Profiles, labels and years, the common starting point of every experiment."""

    profiles: tuple[SegmentProfile, ...]
    vectors: np.ndarray  # (novels, n_segments, 11): the profiles' segment vectors, stacked
    labels: np.ndarray  # +1 happy, -1 unhappy
    years: np.ndarray  # publication years, in corpus order

    @property
    def n_segments(self) -> int:
        return self.vectors.shape[1]


def prepare_inputs(corpus: Corpus, lexicon: SentimentLexicon, n_segments: int = 75) -> RunInputs:
    if n_segments < 1:
        raise FeaturizationError(f"the number of segments must be at least 1, got {n_segments}")
    # Checked before the stack is allocated, which a huge count would overflow.
    shortest = min(corpus.novels, key=lambda novel: len(novel.lemmas), default=None)
    if shortest is not None and len(shortest.lemmas) < n_segments:
        raise FeaturizationError(f"novel {shortest.metadata.id!r}: cannot split "
                                 f"{len(shortest.lemmas)} lemmas into {n_segments} non-empty segments")
    vectors = np.empty((corpus.total, n_segments, N_DIMS))
    profiles = tuple(compute_profiles(corpus, lexicon, vectors))
    vectors.flags.writeable = False
    labels = np.array([1 if n.metadata.label else -1 for n in corpus.novels])
    years = np.array([n.metadata.year for n in corpus.novels])
    labels.flags.writeable = years.flags.writeable = False
    return RunInputs(profiles, vectors, labels, years)


def feature_matrix(vectors: np.ndarray, final_len: int, feature_set_id: int) -> np.ndarray:
    """One row per novel of ``(novels, n_segments, 11)`` segment ``vectors``,
    holding one of the six cumulative feature sets at final-section length ``final_len``.

    Block order (11 values each, canonical dimension order):
      1: [final segment]
      2: [final segment, final segment - main mean]
      3: [final-section mean]
      4: [final-section mean, final - main]
      5: [final-section mean, final - main, final - late-main]
      6: [final-section mean, final - main, final - late-main, final segment]

    Section means are unweighted means over their segments; all differences
    are oriented as (final minus other). Every set needs ``1 <= final_len <
    n_segments``, a non-empty main section; sets 5 and 6 also need
    ``2 * final_len <= n_segments``, room for the late-main section.
    """
    if feature_set_id not in FEATURE_SET_DIMS:
        raise FeaturizationError(f"feature_set_id must be in 1..6, got {feature_set_id}")
    n = vectors.shape[1]
    if not 1 <= final_len < n:
        raise FeaturizationError(f"final_len must be in 1..{n - 1} for {n} segments "
                                 f"(a non-empty main section), got {final_len}")
    if feature_set_id >= 5 and 2 * final_len > n:
        raise FeaturizationError(f"feature set {feature_set_id} needs 2 * final_len <= {n} segments (a "
                                 f"late-main section as long as the final one), got final_len {final_len}")
    final_segment = vectors[:, -1]

    def mean(start: int, stop: int) -> np.ndarray:  # taken only for the sections the set reads
        return vectors[:, start:stop].mean(axis=1)

    if feature_set_id == 1:
        blocks = [final_segment]
    elif feature_set_id == 2:
        blocks = [final_segment, final_segment - mean(0, n - final_len)]
    elif feature_set_id == 3:
        blocks = [mean(n - final_len, n)]
    else:
        final = mean(n - final_len, n)
        blocks = [final, final - mean(0, n - final_len)]
        if feature_set_id >= 5:
            blocks.append(final - mean(n - 2 * final_len, n - final_len))
        if feature_set_id == 6:
            blocks.append(final_segment)
    return np.hstack(blocks)


def _feature_stack(vectors: np.ndarray, final_lens, feature_set_id: int) -> np.ndarray:
    """The ``(P, novels, dim)`` stack of one ``feature_matrix`` call per final length.
    Passed as a temporary (a group's gather), ``vectors`` is freed when this returns."""
    return np.stack([feature_matrix(vectors, final_len, feature_set_id) for final_len in final_lens])


# ---------------------------------------------------------------------------
# Feature ladder
# ---------------------------------------------------------------------------


def run_feature_ladder(
    inputs: RunInputs,
    final_len: int,
    config: ClassifierConfig = ClassifierConfig(),
) -> tuple[tuple[int, float, float], ...]:
    """One ``(feature_set_id, f1, accuracy)`` row per feature set, cross-validated under shared folds."""
    # Every matrix is made, and so checked, before any training.
    matrices = [feature_matrix(inputs.vectors, final_len, fsid) for fsid in FEATURE_SET_DIMS]
    rows = []
    for fsid, X in zip(FEATURE_SET_DIMS, matrices):
        (margins,) = cross_validate(X[None], inputs.labels, **asdict(config))
        f1, accuracy = f1_accuracy(margins, inputs.labels)
        rows.append((fsid, float(f1), float(accuracy)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Partition sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    main_fraction: float
    final_len: int
    f1: float


def best_points(points: tuple[SweepPoint, ...]) -> tuple[SweepPoint, ...]:
    """The points of a non-empty sweep at its maximal F1, largest main fraction first:
    the best point, then the final lengths tied with it in ascending order."""
    best = max(p.f1 for p in points)
    return tuple(sorted((p for p in points if p.f1 == best), key=lambda p: p.main_fraction, reverse=True))


def _sweep_curves(inputs: RunInputs, groups, final_lens, feature_set_id: int,
                  config: ClassifierConfig) -> list[tuple[SweepPoint, ...]]:
    """The sweep points of each group of novel rows (a slice or an index list), each
    from its own CV call on a stack of its point matrices, made on the group's rows
    alone: a feature row reads only its own novel."""
    n = inputs.n_segments
    final_lens = sorted(range(n // 2, 0, -1) if final_lens is None else final_lens, reverse=True)
    if not final_lens:
        raise FeaturizationError(f"a partition sweep needs a final length, got none for {n} segments")
    curves = []
    for rows in groups:
        y = inputs.labels[rows]
        # No name holds the group's vectors or the stack (nor would a ``**`` call's
        # argument tuple): the vectors are freed once the stack is made, and
        # cross_validate frees the stack once it has made its rows-first copy.
        margins = cross_validate(_feature_stack(inputs.vectors[rows], final_lens, feature_set_id), y,
                                 folds=config.folds, seed=config.seed, C=config.C, epochs=config.epochs)
        f1s = f1_accuracy(margins, y)[0].tolist()
        curves.append(tuple(SweepPoint((n - f) / n, f, f1) for f, f1 in zip(final_lens, f1s)))
    return curves


def run_partition_sweep(
    inputs: RunInputs,
    final_lens=None,
    feature_set_id: int = 3,
    config: ClassifierConfig = ClassifierConfig(),
) -> tuple[SweepPoint, ...]:
    """One cross-validated F1 per final-section length; one CV call, shared folds.

    The default grid is every whole segment from ``n_segments // 2`` down
    to 1. Points run from the longest final section (smallest main
    fraction) to the shortest, and each main fraction is
    ``(n_segments - final_len) / n_segments``. An empty grid is refused.
    """
    (points,) = _sweep_curves(inputs, [slice(None)], final_lens, feature_set_id, config)
    return points


# ---------------------------------------------------------------------------
# Publication-period analysis
# ---------------------------------------------------------------------------

PERIOD_CUTS = (1830, 1848, 1870)
PERIOD_LABELS = ("<=1830", "1831-1848", "1849-1870", ">=1871")


@dataclass(frozen=True)
class PeriodGroup:
    label: str
    novel_count: int
    points: tuple[SweepPoint, ...] | None  # None when the group was skipped


def group_indices(years) -> list[list[int]]:
    """Indices of the years in each :data:`PERIOD_LABELS` group, in input order."""
    # side="left": a year equal to a cut lands before it, in the earlier group.
    group = np.searchsorted(PERIOD_CUTS, years)
    return [np.flatnonzero(group == g).tolist() for g in range(len(PERIOD_LABELS))]


def run_period_analysis(
    inputs: RunInputs,
    feature_set_id: int = 3,
    final_lens=None,
    config: ClassifierConfig = ClassifierConfig(),
) -> tuple[PeriodGroup, ...]:
    """Per-period partition sweep, one group per :data:`PERIOD_LABELS` entry;
    undersized groups are flagged, not fatal.

    A group is swept only when each class has at least ``folds`` novels;
    otherwise its points are None.
    """
    indices = group_indices(inputs.years)
    happy = [int(np.sum(inputs.labels[idx] == 1)) for idx in indices]
    swept = [g for g, idx in enumerate(indices) if min(happy[g], len(idx) - happy[g]) >= config.folds]
    curves = _sweep_curves(inputs, [indices[g] for g in swept], final_lens, feature_set_id, config)
    points_of = dict(zip(swept, curves))
    return tuple(
        PeriodGroup(label, len(idx), points_of.get(g))
        for g, (label, idx) in enumerate(zip(PERIOD_LABELS, indices))
    )


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def run_baselines(corpus: Corpus) -> tuple[float, float]:
    """(random-guess expected accuracy, majority-vote accuracy).

    The random expectation is the analytic 0.5 of a fair coin; majority
    accuracy is the larger class share.
    """
    if corpus.total == 0:
        raise ValueError("empty corpus")
    majority = max(corpus.happy, corpus.unhappy) / corpus.total
    return 0.5, majority


# ---------------------------------------------------------------------------
# Report serialization (CSV + meta sidecar)
# ---------------------------------------------------------------------------


def _blake2b(data: bytes = b""):
    """A 32-byte BLAKE2b hash of ``data`` from CPython's built-in ``_blake2``.

    hashlib would load OpenSSL, about 3 MB of RSS. Imported on first use,
    since ``featurize`` hashes nothing.
    """
    try:
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    return blake2b(data, digest_size=32)


def _prefixed(text: str) -> bytes:
    data = text.encode("utf-8")
    return len(data).to_bytes(4, "little") + data


def lexicon_checksum(lexicon: SentimentLexicon) -> str:
    return _blake2b(lexicon_to_text(lexicon).encode("utf-8")).hexdigest()


def corpus_checksum(corpus: Corpus) -> str:
    """BLAKE2b-256 of the used lemmas' count, then each in sorted order as length-prefixed
    UTF-8; then per novel, its five metadata cells, length-prefixed, its token count
    and each token's rank among the used lemmas. Integers are little-endian uint32,
    so ids' width, load order and a lemma map's unused lemmas do not count.
    """
    vocabulary = corpus.vocabulary
    used = np.zeros(len(vocabulary), dtype=bool)
    for novel in corpus.novels:
        used[novel.lemmas.ids] = True
    lemma_ids = sorted(np.flatnonzero(used).tolist(), key=vocabulary.__getitem__)
    rank = np.zeros(len(vocabulary), dtype="<u4")
    rank[lemma_ids] = np.arange(len(lemma_ids))
    h = _blake2b(len(lemma_ids).to_bytes(4, "little"))
    for i in lemma_ids:  # one short bytes object at a time: a join would hold them all
        h.update(_prefixed(vocabulary[i]))
    for novel in corpus.novels:
        m, ids = novel.metadata, novel.lemmas.ids
        h.update(b"".join(map(_prefixed, (m.id, m.title, m.author, str(m.year), str(int(m.label))))))
        h.update(len(ids).to_bytes(4, "little"))
        h.update(rank.take(ids))
    return h.hexdigest()


def _csv(header: str, rows) -> str:
    return "".join(f"{line}\n" for line in (header, *rows))


def _point_cells(point: SweepPoint) -> str:
    return f"{point.main_fraction:.6f},{point.final_len},{point.f1:.6f}"


def ladder_csv(rows) -> str:
    """``rows`` are :func:`run_feature_ladder`'s ``(feature_set_id, f1, accuracy)``."""
    return _csv("feature_set,f1,accuracy", (f"{fsid},{f1:.6f},{acc:.6f}" for fsid, f1, acc in rows))


def sweep_csv(points: tuple[SweepPoint, ...]) -> str:
    return _csv("main_fraction,final_len,f1", map(_point_cells, points))


def periods_csv(groups: tuple[PeriodGroup, ...]) -> str:
    """One row per sweep point; a skipped group is one row of ``skipped`` cells."""
    rows = []
    for group in groups:
        if group.points is None:
            cells = ["skipped,skipped,skipped"]
        else:
            cells = map(_point_cells, group.points)
        rows.extend(f"{group.label},{c},{group.novel_count}" for c in cells)
    return _csv("period,main_fraction,final_len,f1,n_novels", rows)


def meta_text(config: dict, corpus: Corpus, lexicon: SentimentLexicon) -> str:
    """Sidecar capturing everything needed to re-run a report bit-identically."""
    fields = {
        "plotarc_version": _pkg_version,
        **config,
        "checksum_algorithm": "blake2b-256",
        "corpus_checksum": corpus_checksum(corpus),
        "corpus_novels": corpus.total,
        "lexicon_checksum": lexicon_checksum(lexicon),
        "lexicon_entries": lexicon.size,
    }
    return "".join(f"{k} = {v}\n" for k, v in fields.items())
