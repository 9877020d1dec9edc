"""Deterministic linear SVM: standardization, Pegasos-style training,
stratified cross-validation, and evaluation metrics.

The trainer runs primal subgradient descent on

    (1/n) sum_i max(0, 1 - y_i (w . x_i + b))  +  (1/(2 C n)) ||w||^2

with the classic 1/(lambda t) step schedule, lambda = 1/(C n), for every
model of a cross-validation at once (one numpy update per step). Everything
is a pure function of its inputs plus an explicit seed, so repeated runs
are bit-identical.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class StandardizationParams:
    means: np.ndarray
    scales: np.ndarray  # population std; 1.0 substituted for constant columns

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.means) / self.scales


def standardize_fit(X: np.ndarray) -> StandardizationParams:
    """Per-column mean and population std over the rows (axis -2) of each stacked matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-2] < 2:
        raise TrainingError("standardization needs a matrix with at least 2 rows")
    means = X.mean(axis=-2)
    scales = X.std(axis=-2)
    scales = np.where(scales > 0.0, scales, 1.0)
    means.flags.writeable = False
    scales.flags.writeable = False
    return StandardizationParams(means, scales)


# A huge C overflows the step size; the finiteness check reports that, not warnings.
@np.errstate(all="ignore")
def train_linear_svm(
    X: np.ndarray,
    y: np.ndarray,
    rows: Sequence[np.ndarray],
    standardization: StandardizationParams,
    C: float = 1.0,
    epochs: int = 200,
    seed: int = 42,
) -> tuple[np.ndarray, np.ndarray]:
    """Train each of P raw ``(P, n, dim)`` matrices on each of F row sets, in lockstep.

    ``y`` labels the n rows {+1, -1}, ``rows[f]`` indexes set f's rows and
    ``standardization`` is ``(P, F, dim)``. Returns read-only ``(P, F, dim)``
    weights and ``(P, F)`` biases. ``C`` must be positive and finite, and
    weights that leave the finite range raise :class:`TrainingError`.

    Model (p, f) takes exactly the steps of a lone run on its standardized
    rows: each epoch visits them in ``default_rng(seed).permutation(n_f)``
    order (drawn once per distinct size), its step counter reaches
    ``epochs * n_f``, and steps past ``n_f`` are no-ops. Each step standardizes its gathered rows with ``transform``'s
    elementwise operations, and the stacked ``matmul`` computes each margin
    exactly as ``x @ w``, so a model's bits do not depend on the others.
    """
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if not 0.0 < C < np.inf:
        raise TrainingError(f"C must be positive and finite, got {C}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = (X.shape[0], len(rows), X.shape[-1])
    if X.ndim != 3 or X.shape[1] != y.shape[0] or standardization.means.shape != shape:
        raise TrainingError("X must be (P, n, dim) with n labels, standardization (P, F, dim)")
    for r in rows:
        if not (np.any(y[r] > 0) and np.any(y[r] < 0)):
            raise TrainingError("training needs at least one example of each class")

    n = np.array([r.size for r in rows])
    n_max = int(n.max())
    lam = 1.0 / (C * n)
    rngs = {size: np.random.default_rng(seed) for size in set(n.tolist())}
    steps = np.arange(1, n_max + 1)[:, None]  # step within the epoch
    active = steps <= n  # (n_max, F): False on the padding past a set's size
    order = np.zeros((n_max, len(rows)), dtype=np.intp)  # row of each set's t-th step
    W = np.zeros(shape)
    b = np.zeros(shape[:2])
    for epoch in range(epochs):
        draws = {size: rng.permutation(size) for size, rng in rngs.items()}
        for f, r in enumerate(rows):
            order[: r.size, f] = r[draws[r.size]]
        y_epoch = y[order]
        eta = 1.0 / (lam * (epoch * n + steps))
        shrink = np.where(active, 1.0 - eta * lam, 1.0)
        coef = eta * y_epoch
        for t in range(n_max):
            x = standardization.transform(X[:, order[t]])
            margin = np.matmul(x[..., None, :], W[..., :, None])[..., 0, 0]
            violated = (y_epoch[t] * (margin + b) < 1.0) & active[t]
            W *= shrink[t, :, None]
            np.add(W, coef[t, :, None] * x, out=W, where=violated[..., None])
            b = np.where(violated, b + coef[t], b)
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise TrainingError(f"training diverged to non-finite weights with C = {C}")
    W.flags.writeable = False
    b.flags.writeable = False
    return W, b


def predict(X: np.ndarray, W: np.ndarray, b) -> np.ndarray:
    """+1 where ``X @ w + b >= 0``, else -1, for each stacked model.

    ``X`` is ``(..., m, dim)``, ``W`` is ``(..., dim)`` and ``b`` is ``(...)``;
    the result is ``(..., m)``. Each margin has the bits of a lone ``x @ w + b``.
    """
    margins = np.matmul(X, W[..., None])[..., 0] + np.asarray(b)[..., None]
    return np.where(margins >= 0.0, 1, -1)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def confusion_counts(predictions, gold) -> tuple[int, int, int, int]:
    predictions = np.asarray(predictions)
    gold = np.asarray(gold)
    if predictions.shape != gold.shape:
        raise ValueError("prediction/gold length mismatch")
    tp = int(np.sum((predictions == 1) & (gold == 1)))
    fp = int(np.sum((predictions == 1) & (gold == -1)))
    tn = int(np.sum((predictions == -1) & (gold == -1)))
    fn = int(np.sum((predictions == -1) & (gold == 1)))
    return tp, fp, tn, fn


def f1_score(predictions, gold) -> float:
    """F1 for the positive (+1 = happy) class; 0.0 when undefined."""
    predictions = np.asarray(predictions)
    gold = np.asarray(gold)
    if predictions.shape != gold.shape or predictions.size == 0:
        raise ValueError("predictions and gold must be equal-length and non-empty")
    tp, fp, _, fn = confusion_counts(predictions, gold)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def accuracy_score(predictions, gold) -> float:
    predictions = np.asarray(predictions)
    gold = np.asarray(gold)
    return float(np.mean(predictions == gold))


@dataclass(frozen=True)
class EvalMetrics:
    f1: float
    accuracy: float
    per_fold: tuple[tuple[float, float], ...]  # (f1, accuracy) per fold
    confusion: tuple[int, int, int, int]  # tp, fp, tn, fn
    fold_assignment: tuple[int, ...] = field(default=())


def stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold index per example: per-class seeded shuffle, then round-robin."""
    y = np.asarray(y)
    if folds < 2:
        raise TrainingError("folds must be >= 2")
    assignment = np.empty(y.shape[0], dtype=int)
    rng = np.random.default_rng(seed)
    for cls in (1, -1):
        idx = np.flatnonzero(y == cls)
        if idx.size < folds:
            raise TrainingError(
                f"class {cls:+d} has {idx.size} members, fewer than {folds} folds"
            )
        assignment[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % folds
    return assignment


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    folds: int = 10,
    seed: int = 42,
    C: float = 1.0,
    epochs: int = 200,
) -> tuple[EvalMetrics, ...]:
    """Stratified k-fold CV of each matrix in a ``(P, n, dim)`` stack (one matrix: ``X[None]``).

    The P matrices share the n rows labelled by ``y`` and one fold
    assignment; the P metrics come back in stack order. The aggregate F1
    pools out-of-fold predictions. Standardization is fitted on each fold's
    training split only, so held-out rows never leak into it. All
    P x ``folds`` models train in one lockstep call, and each fold's
    held-out rows are scored for all P matrices in one batched product.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 3:
        raise TrainingError(f"X must be a (P, n, dim) stack, got shape {X.shape}")
    assignment = stratified_folds(y, folds, seed)
    held = [assignment == k for k in range(folds)]
    rows = [np.flatnonzero(~mask) for mask in held]
    fits = [standardize_fit(X[:, r]) for r in rows]
    stacked = StandardizationParams(
        np.stack([fit.means for fit in fits], axis=1), np.stack([fit.scales for fit in fits], axis=1)
    )
    W, b = train_linear_svm(X, y, rows, stacked, C=C, epochs=epochs, seed=seed)
    pooled = np.empty(X.shape[:2], dtype=y.dtype)
    for k, (fit, mask) in enumerate(zip(fits, held)):
        held_out = (X[:, mask] - fit.means[:, None]) / fit.scales[:, None]
        pooled[:, mask] = predict(held_out, W[:, k], b[:, k])
    return tuple(
        EvalMetrics(
            f1=f1_score(pred, y),
            accuracy=accuracy_score(pred, y),
            per_fold=tuple((f1_score(pred[m], y[m]), accuracy_score(pred[m], y[m])) for m in held),
            confusion=confusion_counts(pred, y),
            fold_assignment=tuple(assignment.tolist()),
        )
        for pred in pooled
    )
