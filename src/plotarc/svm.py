"""Deterministic linear SVM on arrays: a standardization is ``(means, scales)``,
``cross_validate`` returns a ``(P, n, dim)`` stack's pooled out-of-fold labels
as one ``(P, n)`` array, and ``f1_accuracy`` scores every row of it at once
(a fold's score is the same call on its columns).

The trainer runs primal subgradient descent on

    (1/n) sum_i max(0, 1 - y_i w . [x_i, 1])  +  (1/(2 C n)) ||w||^2

with the classic 1/(lambda t) step schedule, lambda = 1/(C n), for every
model of a cross-validation at once (one numpy update per step). The bias,
w's last entry, is penalized as in LIBLINEAR; everything is a pure function
of its inputs plus an explicit seed, so repeated runs are bit-identical.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class TrainingError(ValueError):
    pass


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ``(means, scales)`` over the rows (axis -2) of each stacked matrix.

    A scale is the population std, with 1.0 for a constant column; a row
    is standardized as ``(x - means) / scales``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-2] < 2:
        raise TrainingError("standardization needs a matrix with at least 2 rows")
    means = X.mean(axis=-2)
    scales = X.std(axis=-2)
    scales = np.where(scales > 0.0, scales, 1.0)
    return means, scales


# A huge C overflows the step size; the finiteness check reports that, not warnings.
@np.errstate(all="ignore")
def train_linear_svm(
    X: np.ndarray, y: np.ndarray, rows: Sequence[np.ndarray], means: np.ndarray, scales: np.ndarray,
    C: float = 1.0, epochs: int = 200, seed: int = 42,
) -> np.ndarray:
    """Train each of P raw ``(P, n, dim)`` matrices on each of F row sets, in lockstep.

    ``y`` labels the n rows {+1, -1}, ``rows[f]`` indexes set f's rows and
    ``means`` and ``scales`` are ``(P, F, dim)``. Returns read-only ``(P, F, dim)``
    weights. ``C`` must be positive and finite; non-finite weights raise
    :class:`TrainingError`.

    Model (p, f) takes exactly the steps of a lone run on its standardized
    rows: each epoch visits them in ``default_rng(seed).permutation(n_f)``
    order (drawn once per distinct size), its step counter reaches
    ``epochs * n_f``, and steps past ``n_f`` are no-ops. Each step
    standardizes its gathered rows as ``(x - means) / scales``, and the
    stacked ``matmul`` computes each margin exactly as ``x @ w``, so a
    model's bits do not depend on the others.
    """
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if not 0.0 < C < np.inf:
        raise TrainingError(f"C must be positive and finite, got {C}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = (X.shape[0], len(rows), X.shape[-1])
    if X.ndim != 3 or X.shape[1] != y.shape[0] or not means.shape == scales.shape == shape:
        raise TrainingError("X must be (P, n, dim) with n labels, means and scales (P, F, dim)")
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
    for epoch in range(epochs):
        draws = {size: rng.permutation(size) for size, rng in rngs.items()}
        for f, r in enumerate(rows):
            order[: r.size, f] = r[draws[r.size]]
        y_epoch = y[order]
        eta = 1.0 / (lam * (epoch * n + steps))
        shrink = np.where(active, 1.0 - eta * lam, 1.0)
        coef = eta * y_epoch
        for t in range(n_max):
            x = (X[:, order[t]] - means) / scales
            margin = np.matmul(x[..., None, :], W[..., :, None])[..., 0, 0]
            violated = (y_epoch[t] * margin < 1.0) & active[t]
            W *= shrink[t, :, None]
            np.add(W, coef[t, :, None] * x, out=W, where=violated[..., None])
    if not np.isfinite(W).all():
        raise TrainingError(f"training diverged to non-finite weights with C = {C}")
    W.flags.writeable = False
    return W


def predict(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """+1 where ``X @ w >= 0``, else -1, for each stacked model.

    ``X`` is ``(..., m, dim)`` and ``W`` is ``(..., dim)``; the result is
    ``(..., m)``. Each margin has the bits of a lone ``x @ w``.
    """
    return np.where(np.matmul(X, W[..., None])[..., 0] >= 0.0, 1, -1)


def _ratio(num, den) -> np.ndarray:
    """``num / den``, and 0.0 where ``den`` is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def f1_accuracy(predictions, gold) -> tuple[np.ndarray, np.ndarray]:
    """F1 of the +1 (happy) class and accuracy of each ``(..., n)`` row against n ``gold`` labels.

    F1 is 0.0 where undefined. Precision and recall are quotients of counts,
    then F1 is ``2 p r / (p + r)``: the bits of the same arithmetic on floats.
    """
    predictions, gold = np.asarray(predictions), np.asarray(gold)
    if gold.ndim == 0 or gold.shape[-1] == 0 or predictions.shape[-1:] != gold.shape[-1:]:
        raise ValueError("predictions and gold must be non-empty rows of equal length")
    called, actual = predictions == 1, gold == 1
    tp = np.sum(called & actual, axis=-1)
    n_called = tp + np.sum(called & (gold == -1), axis=-1)
    n_actual = tp + np.sum((predictions == -1) & actual, axis=-1)
    precision, recall = _ratio(tp, n_called), _ratio(tp, n_actual)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return f1, np.mean(predictions == gold, axis=-1)


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
            raise TrainingError(f"class {cls:+d} has {idx.size} members, fewer than {folds} folds")
        assignment[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % folds
    return assignment


def cross_validate(
    X: np.ndarray, y: np.ndarray, folds: int = 10, seed: int = 42, C: float = 1.0, epochs: int = 200
) -> np.ndarray:
    """Pooled out-of-fold labels of each matrix in a ``(P, n, dim)`` stack (one matrix: ``X[None]``).

    The P matrices share the n rows labelled by ``y`` and one stratified
    fold assignment; row p of the ``(P, n)`` result holds matrix p's
    held-out predictions. Standardization is fitted on each fold's training
    split only, so held-out rows never leak into it; the bias column of ones
    appended after it gets mean 0 and scale 1. All P x ``folds`` models train
    in one lockstep call, and each fold's held-out rows are scored for all
    P matrices in one batched product.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 3:
        raise TrainingError(f"X must be a (P, n, dim) stack, got shape {X.shape}")
    assignment = stratified_folds(y, folds, seed)
    held = [assignment == k for k in range(folds)]
    rows = [np.flatnonzero(~mask) for mask in held]
    fits = zip(*(standardize_fit(X[:, r]) for r in rows))
    means, scales = (np.stack(arrays, axis=1) for arrays in fits)
    last = ((0, 0), (0, 0), (0, 1))  # the bias column; padded after the fit, so no copy adds to its peak
    X, scales = (np.pad(a, last, constant_values=1.0) for a in (X, scales))
    means = np.pad(means, last)
    W = train_linear_svm(X, y, rows, means, scales, C=C, epochs=epochs, seed=seed)
    pooled = np.empty(X.shape[:2], dtype=y.dtype)
    for k, mask in enumerate(held):
        held_out = (X[:, mask] - means[:, k, None]) / scales[:, k, None]
        pooled[:, mask] = predict(held_out, W[:, k])
    return pooled
