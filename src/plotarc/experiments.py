"""The three experiment drivers plus baselines and report serialization.

Every run records its full configuration and input checksums alongside the
results so a report can be re-run bit-identically. Within one ladder or
sweep run all rows/points share the same fold assignment, making the
numbers directly comparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from plotarc._version import __version__ as _pkg_version
from plotarc.corpus import Corpus, intern_lemmas
from plotarc.features import (
    N_DIMS,
    FeaturizationError,
    SectionPartition,
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


def feature_matrix(
    inputs: RunInputs, partition: SectionPartition, feature_set_id: int
) -> np.ndarray:
    """One row per novel holding one of the six cumulative feature sets.

    Block order (11 values each, canonical dimension order):
      1: [final segment]
      2: [final segment, final segment - main mean]
      3: [final-section mean]
      4: [final-section mean, final - main]
      5: [final-section mean, final - main, final - late-main]
      6: [final-section mean, final - main, final - late-main, final segment]

    Section means are unweighted means over their segments; all differences
    are oriented as (final minus other).
    """
    if feature_set_id not in FEATURE_SET_DIMS:
        raise FeaturizationError(f"feature_set_id must be in 1..6, got {feature_set_id}")
    if partition.n_segments != inputs.n_segments:
        raise FeaturizationError(
            f"partition expects {partition.n_segments} segments, "
            f"profiles have {inputs.n_segments}"
        )
    vectors = inputs.vectors
    main = vectors[:, partition.main_slice].mean(axis=1)
    final = vectors[:, partition.final_slice].mean(axis=1)
    final_segment = vectors[:, -1]

    if feature_set_id == 1:
        blocks = [final_segment]
    elif feature_set_id == 2:
        blocks = [final_segment, final_segment - main]
    elif feature_set_id == 3:
        blocks = [final]
    elif feature_set_id == 4:
        blocks = [final, final - main]
    else:
        if partition.late_len < 1:
            raise FeaturizationError(
                f"feature set {feature_set_id} needs late_len >= 1 in the partition"
            )
        late = vectors[:, partition.late_slice].mean(axis=1)
        blocks = [final, final - main, final - late]
        if feature_set_id == 6:
            blocks.append(final_segment)
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# Feature ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderReport:
    rows: tuple[tuple[int, float, float], ...]  # (feature_set_id, f1, accuracy)
    config: dict


def run_feature_ladder(
    inputs: RunInputs,
    partition: SectionPartition,
    config: ClassifierConfig = ClassifierConfig(),
) -> LadderReport:
    """Cross-validated F1/accuracy for each of the six feature sets under shared folds."""
    rows = []
    for fsid in FEATURE_SET_DIMS:
        X = feature_matrix(inputs, partition, fsid)
        (pred,) = cross_validate(X[None], inputs.labels, **asdict(config))
        f1, accuracy = f1_accuracy(pred, inputs.labels)
        rows.append((fsid, float(f1), float(accuracy)))
    return LadderReport(
        rows=tuple(rows),
        config={
            "n_segments": partition.n_segments,
            "final_len": partition.final_len,
            "late_len": partition.late_len,
            **asdict(config),
        },
    )


# ---------------------------------------------------------------------------
# Partition sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    main_fraction: float
    final_len: int
    f1: float


@dataclass(frozen=True)
class SweepCurve:
    points: tuple[SweepPoint, ...]
    config: dict = field(default_factory=dict)

    @property
    def argmax_point(self) -> SweepPoint | None:
        """Point with maximal F1; ties resolve to the larger main fraction."""
        if not self.points:
            return None
        return max(self.points, key=lambda p: (p.f1, p.main_fraction))


def _sweep_curves(inputs: RunInputs, groups, final_lens, feature_set_id: int,
                  config: ClassifierConfig) -> list[SweepCurve]:
    """One curve per group of novel rows (a slice or an index list), each from its own
    CV call; all are cut from one stack, since a feature row reads only its own novel."""
    n = inputs.n_segments
    if final_lens is None and n < 2:
        raise FeaturizationError(f"a partition sweep needs at least 2 segments, got {n}")
    final_lens = sorted(range(n // 2, 0, -1) if final_lens is None else final_lens, reverse=True)
    # One degree of freedom per point: the late-main section mirrors the
    # final section whenever the feature set consumes it.
    partitions = [
        SectionPartition(n, final_len, final_len if feature_set_id in (5, 6) else 0)
        for final_len in final_lens
    ]
    fields = {"n_segments": n, "feature_set": feature_set_id, **asdict(config)}
    if partitions and groups:
        X = np.stack([feature_matrix(inputs, p, feature_set_id) for p in partitions])
    curves = []
    for rows in groups:
        f1s = []
        if partitions:
            y = inputs.labels[rows]
            f1s = f1_accuracy(cross_validate(X[:, rows], y, **asdict(config)), y)[0].tolist()
        points = (SweepPoint((n - p.final_len) / n, p.final_len, f1) for p, f1 in zip(partitions, f1s))
        curves.append(SweepCurve(tuple(points), dict(fields)))
    return curves


def run_partition_sweep(
    inputs: RunInputs,
    final_lens=None,
    feature_set_id: int = 3,
    config: ClassifierConfig = ClassifierConfig(),
) -> SweepCurve:
    """One cross-validated F1 per final-section length; one CV call, shared folds.

    The default grid is every whole segment from ``n_segments // 2`` down
    to 1. Points run from the longest final section (smallest main
    fraction) to the shortest, and each main fraction is
    ``(n_segments - final_len) / n_segments``.
    """
    (curve,) = _sweep_curves(inputs, [slice(None)], final_lens, feature_set_id, config)
    return curve


# ---------------------------------------------------------------------------
# Publication-period analysis
# ---------------------------------------------------------------------------

PERIOD_CUTS = (1830, 1848, 1870)
PERIOD_LABELS = ("<=1830", "1831-1848", "1849-1870", ">=1871")


@dataclass(frozen=True)
class PeriodGroup:
    label: str
    novel_count: int
    curve: SweepCurve | None  # None when the group was skipped


@dataclass(frozen=True)
class PeriodReport:
    groups: tuple[PeriodGroup, ...]
    config: dict


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
) -> PeriodReport:
    """Per-period partition sweep; undersized groups are flagged, not fatal.

    A group is swept only when each class has at least ``folds`` novels;
    otherwise its curve is None.
    """
    indices = group_indices(inputs.years)
    happy = [int(np.sum(inputs.labels[idx] == 1)) for idx in indices]
    swept = [g for g, idx in enumerate(indices) if min(happy[g], len(idx) - happy[g]) >= config.folds]
    curves = _sweep_curves(inputs, [indices[g] for g in swept], final_lens, feature_set_id, config)
    curve_of = dict(zip(swept, curves))
    groups = [
        PeriodGroup(label, len(idx), curve_of.get(g))
        for g, (label, idx) in enumerate(zip(PERIOD_LABELS, indices))
    ]
    return PeriodReport(
        groups=tuple(groups),
        config={
            "n_segments": inputs.n_segments,
            "period_cuts": ",".join(map(str, PERIOD_CUTS)),
            "feature_set": feature_set_id,
            **asdict(config),
        },
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


def _sha256(data: bytes = b""):
    """A SHA-256 hash of ``data`` from CPython's built-in: ``_sha2`` from 3.12, ``_sha256`` before.

    hashlib would load OpenSSL, about 3 MB of RSS. Imported on first use,
    since ``featurize`` hashes nothing.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def lexicon_checksum(lexicon: SentimentLexicon) -> str:
    return _sha256(lexicon_to_text(lexicon).encode("utf-8")).hexdigest()


def corpus_checksum(corpus: Corpus) -> str:
    """SHA-256 over each novel's metadata row and its lemmas joined by spaces.

    Each distinct lemma is encoded once; a novel's bytes are gathered by id.
    """
    vocabulary, ids = intern_lemmas(corpus)
    encoded = np.array([lemma.encode("utf-8") for lemma in vocabulary], dtype=object)
    h = _sha256()
    for novel, novel_ids in zip(corpus.novels, ids):
        m = novel.metadata
        h.update(
            f"{m.id}\t{m.title}\t{m.author}\t{m.year}\t{int(m.label)}\n".encode("utf-8")
        )
        h.update(b" ".join(encoded[novel_ids].tolist()))
        h.update(b"\n")
    return h.hexdigest()


def _csv(header: str, rows) -> str:
    return "".join(f"{line}\n" for line in (header, *rows))


def _point_cells(point: SweepPoint) -> str:
    return f"{point.main_fraction:.6f},{point.final_len},{point.f1:.6f}"


def ladder_csv(report: LadderReport) -> str:
    rows = (f"{fsid},{f1:.6f},{acc:.6f}" for fsid, f1, acc in report.rows)
    return _csv("feature_set,f1,accuracy", rows)


def sweep_csv(curve: SweepCurve) -> str:
    return _csv("main_fraction,final_len,f1", map(_point_cells, curve.points))


def periods_csv(report: PeriodReport) -> str:
    """One row per sweep point; a skipped group is one row of ``skipped`` cells."""
    rows = []
    for group in report.groups:
        if group.curve is None:
            cells = ["skipped,skipped,skipped"]
        else:
            cells = map(_point_cells, group.curve.points)
        rows.extend(f"{group.label},{c},{group.novel_count}" for c in cells)
    return _csv("period,main_fraction,final_len,f1,n_novels", rows)


def meta_text(config: dict, corpus: Corpus, lexicon: SentimentLexicon) -> str:
    """Sidecar capturing everything needed to re-run a report bit-identically."""
    fields = {
        "plotarc_version": _pkg_version,
        **config,
        "corpus_checksum": corpus_checksum(corpus),
        "corpus_novels": corpus.total,
        "lexicon_checksum": lexicon_checksum(lexicon),
        "lexicon_entries": lexicon.size,
    }
    return "".join(f"{k} = {v}\n" for k, v in fields.items())
