"""Deterministic linear SVM: standardization, Pegasos-style training,
stratified cross-validation, and evaluation metrics.

The trainer runs primal subgradient descent on

    (1/n) sum_i max(0, 1 - y_i (w . x_i + b))  +  (1/(2 C n)) ||w||^2

with the classic 1/(lambda t) step schedule, lambda = 1/(C n), for all
folds of a cross-validation at once (one numpy update per step). Everything
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
    """Per-column mean and population standard deviation from training rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TrainingError("standardization needs a 2-D matrix with at least 2 rows")
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    scales = np.where(scales > 0.0, scales, 1.0)
    means.flags.writeable = False
    scales.flags.writeable = False
    return StandardizationParams(means, scales)


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    standardization: StandardizationParams


def hinge_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, lam: float) -> float:
    margins = 1.0 - y * (X @ w + b)
    return float(np.maximum(margins, 0.0).mean() + 0.5 * lam * (w @ w))


def train_linear_svm(
    X_sets: Sequence[np.ndarray],
    y_sets: Sequence[np.ndarray],
    C: float = 1.0,
    epochs: int = 200,
    seed: int = 42,
) -> tuple[np.ndarray, np.ndarray]:
    """Train one model per training set, all K of them stepped together.

    ``X_sets[k]`` holds standardized rows and ``y_sets[k]`` their {+1, -1}
    labels; the sets may differ in size. Returns read-only ``(K, dim)``
    weights and ``(K,)`` biases. Model k takes exactly the steps of a run on
    its set alone: each epoch visits its rows in
    ``default_rng(seed).permutation(n_k)`` order, its step counter reaches
    ``epochs * n_k``, and steps past ``n_k`` within an epoch are no-ops. The
    unregularized bias uses the weights' step sizes. The stacked ``matmul``
    computes each margin exactly as ``x @ w`` does, so a model's bits do not
    depend on the other sets.
    """
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if C <= 0:
        raise TrainingError("C must be positive")
    X_sets = [np.asarray(X, dtype=float) for X in X_sets]
    y_sets = [np.asarray(y, dtype=float) for y in y_sets]
    dim = X_sets[0].shape[-1]
    for X, y in zip(X_sets, y_sets, strict=True):
        if X.ndim != 2 or X.shape[1] != dim or X.shape[0] != y.shape[0]:
            raise TrainingError("each X must be 2-D, share one width, and have one label per row")
        if not (np.any(y > 0) and np.any(y < 0)):
            raise TrainingError("training needs at least one example of each class")

    n = np.array([X.shape[0] for X in X_sets])
    n_max = int(n.max())
    lam = 1.0 / (C * n)
    rngs = [np.random.default_rng(seed) for _ in X_sets]
    steps = np.arange(1, n_max + 1)[:, None]  # step within the epoch
    active = steps <= n  # (n_max, K): False on the padding past a set's size
    # Row t holds every model's t-th example of the epoch; padding stays zero.
    X_epoch = np.zeros((n_max, len(X_sets), dim))
    y_epoch = np.zeros((n_max, len(X_sets)))
    W = np.zeros((len(X_sets), dim))
    b = np.zeros(len(X_sets))
    for epoch in range(epochs):
        for k, (X, y, rng) in enumerate(zip(X_sets, y_sets, rngs)):
            order = rng.permutation(n[k])
            X_epoch[: n[k], k] = X[order]
            y_epoch[: n[k], k] = y[order]
        eta = 1.0 / (lam * (epoch * n + steps))
        shrink = np.where(active, 1.0 - eta * lam, 1.0)
        coef = eta * y_epoch
        push = coef[:, :, None] * X_epoch
        for t in range(n_max):
            margin = np.matmul(X_epoch[t, :, None, :], W[:, :, None])[:, 0, 0]
            violated = (y_epoch[t] * (margin + b) < 1.0) & active[t]
            W *= shrink[t, :, None]
            np.add(W, push[t], out=W, where=violated[:, None])
            b = np.where(violated, b + coef[t], b)
    W.flags.writeable = False
    b.flags.writeable = False
    return W, b


def predict_many(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Xs = model.standardization.transform(X)
    return np.where(Xs @ model.weights + model.bias >= 0.0, 1, -1)


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
        idx = idx[rng.permutation(idx.size)]
        for j, example in enumerate(idx):
            assignment[example] = j % folds
    return assignment


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    folds: int = 10,
    seed: int = 42,
    C: float = 1.0,
    epochs: int = 200,
) -> EvalMetrics:
    """Stratified k-fold CV; the aggregate F1 pools out-of-fold predictions.

    Standardization is fitted on each fold's training split only, so
    held-out rows never leak into the fitted parameters. The ``folds``
    models are trained together in one lockstep call.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    assignment = stratified_folds(y, folds, seed)
    train_masks = [assignment != k for k in range(folds)]
    params = [standardize_fit(X[mask]) for mask in train_masks]
    W, b = train_linear_svm(
        [p.transform(X[mask]) for p, mask in zip(params, train_masks)],
        [y[mask] for mask in train_masks],
        C=C, epochs=epochs, seed=seed,
    )
    pooled = np.empty_like(y)
    per_fold = []
    for k, (p, mask) in enumerate(zip(params, train_masks)):
        preds = predict_many(LinearModel(W[k], float(b[k]), p), X[~mask])
        pooled[~mask] = preds
        per_fold.append((f1_score(preds, y[~mask]), accuracy_score(preds, y[~mask])))
    return EvalMetrics(
        f1=f1_score(pooled, y),
        accuracy=accuracy_score(pooled, y),
        per_fold=tuple(per_fold),
        confusion=confusion_counts(pooled, y),
        fold_assignment=tuple(int(a) for a in assignment),
    )
