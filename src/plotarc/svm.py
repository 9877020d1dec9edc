"""Deterministic linear SVM: standardization, Pegasos-style training,
stratified cross-validation, and evaluation metrics.

The trainer runs primal subgradient descent on

    (1/n) sum_i max(0, 1 - y_i (w . x_i + b))  +  (1/(2 C n)) ||w||^2

with the classic 1/(lambda t) step schedule, lambda = 1/(C n). Everything
is a pure function of its inputs plus an explicit seed, so repeated runs
are bit-identical.
"""

from __future__ import annotations

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
    C: float
    epochs: int
    seed: int
    standardization: StandardizationParams


def hinge_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, lam: float) -> float:
    margins = 1.0 - y * (X @ w + b)
    return float(np.maximum(margins, 0.0).mean() + 0.5 * lam * (w @ w))


def train_linear_svm(
    X: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    epochs: int = 200,
    seed: int = 42,
    standardization: StandardizationParams | None = None,
) -> LinearModel:
    """Train on already-standardized rows X with labels y in {+1, -1}.

    Deterministic: the per-epoch example order is a fixed shuffle derived
    from ``seed``. The unregularized bias rides along with the same step
    sizes as the weights.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise TrainingError("X must be 2-D with one label per row")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise TrainingError("training needs at least one example of each class")
    if C <= 0:
        raise TrainingError("C must be positive")

    n, dim = X.shape
    lam = 1.0 / (C * n)
    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    b = 0.0
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            xi, yi = X[i], y[i]
            if yi * (xi @ w + b) < 1.0:
                w = (1.0 - eta * lam) * w + eta * yi * xi
                b = b + eta * yi
            else:
                w = (1.0 - eta * lam) * w

    if standardization is None:
        standardization = StandardizationParams(np.zeros(dim), np.ones(dim))
    w.flags.writeable = False
    return LinearModel(w, float(b), float(C), int(epochs), int(seed), standardization)


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
    held-out rows never leak into the fitted parameters.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    assignment = stratified_folds(y, folds, seed)
    pooled = np.empty_like(y)
    per_fold = []
    for k in range(folds):
        test_mask = assignment == k
        params = standardize_fit(X[~test_mask])
        model = train_linear_svm(
            params.transform(X[~test_mask]), y[~test_mask], C=C, epochs=epochs, seed=seed
        )
        model = LinearModel(model.weights, model.bias, C, epochs, seed, params)
        preds = predict_many(model, X[test_mask])
        pooled[test_mask] = preds
        per_fold.append((f1_score(preds, y[test_mask]), accuracy_score(preds, y[test_mask])))
    return EvalMetrics(
        f1=f1_score(pooled, y),
        accuracy=accuracy_score(pooled, y),
        per_fold=tuple(per_fold),
        confusion=confusion_counts(pooled, y),
        fold_assignment=tuple(int(a) for a in assignment),
    )
