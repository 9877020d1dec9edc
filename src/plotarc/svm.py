"""Deterministic linear SVM on arrays: a standardization is ``(means, scales)``,
``cross_validate`` returns the pooled out-of-fold margins of a ``(P, n, dim)``
stack of matrices as one ``(P, n)`` array, and ``f1_accuracy`` scores every
row of it at once, calling a margin ``>= 0`` happy (a fold's score is the
same call on its columns).

The trainer runs primal subgradient descent on

    (1/n) sum_i max(0, 1 - y_i w . [x_i, 1])  +  (1/(2 C n)) ||w||^2

with the classic 1/(lambda t) step schedule, lambda = 1/(C n), for every
model of a cross-validation at once. Training is fold-major: it reads one
rows-first ``(n, P, dim)`` stack, which ``cross_validate`` copies once from
the ``(P, n, dim)`` stack it is given, so a step gathers each fold's next row
for all P matrices with one ``np.take``, and the ``(F, P, dim)`` weights are
updated in place, in buffers allocated once per call. The bias,
w's last entry, is penalized as in LIBLINEAR; everything is a pure function
of its inputs plus an explicit seed, so repeated runs are bit-identical. The
seed's shuffles are the standard library's ``random.Random(seed).shuffle``, so
training never imports ``numpy.random``.
"""

from __future__ import annotations

import operator
import random
from collections.abc import Sequence

import numpy as np


class TrainingError(ValueError):
    pass


class _ShuffleStream:
    """Consecutive permutations: ``random.Random(seed)`` shuffling ``range(n)``, call after call.

    A negative seed is refused: ``Random`` would silently use its absolute value.
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise TrainingError(f"seed must be a non-negative integer, got {seed}")
        self._random = random.Random(seed)

    def permutation(self, n: int) -> np.ndarray:
        order = list(range(n))
        self._random.shuffle(order)
        return np.array(order, dtype=np.intp)


def _standardize_fit(X: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ``(means, scales)`` over ``rows`` (axis -2) of each stacked matrix.

    A scale is the population std, with 1.0 for a constant column; a row
    is standardized as ``(x - means) / scales``. The rows are gathered once
    and their deviations squared in place: the bits of ``np.mean`` and
    ``np.std`` (sum, divide, subtract, square, sum, divide, sqrt) without
    ``np.std``'s second copy.
    """
    dev = X[..., rows, :]
    n = dev.shape[-2]
    means = dev.sum(axis=-2, keepdims=True)
    means /= n
    dev -= means
    np.multiply(dev, dev, out=dev)
    scales = dev.sum(axis=-2)
    scales /= n
    np.sqrt(scales, out=scales)
    return means[..., 0, :], np.where(scales > 0.0, scales, 1.0)


# A huge C overflows the step size; the finiteness check reports that, not warnings.
@np.errstate(all="ignore")
def _train(
    X: np.ndarray, y: np.ndarray, rows: Sequence[np.ndarray], means: np.ndarray, scales: np.ndarray,
    C: float, epochs: int, seed: int,
) -> np.ndarray:
    """Train each matrix of a rows-first ``(n, P, dim)`` stack on each of F row sets, in lockstep.

    ``X[i, p]`` is row i of matrix p, ``y`` labels the n rows {+1, -1},
    ``rows[f]`` indexes set f's rows and ``means`` and ``scales`` are
    ``(F, P, dim)``; ``cross_validate`` has checked the arguments, and each
    set holds both classes. Returns read-only ``(F, P, dim)`` weights;
    non-finite weights raise :class:`TrainingError`.

    Model (f, p) takes exactly the steps of a lone run on its standardized
    rows: each epoch visits them in the order of the next shuffle of
    ``range(n_f)`` by ``random.Random(seed)``, one generator per distinct
    size; its step counter reaches ``epochs * n_f``, and steps past ``n_f``
    are no-ops. Each step gathers every set's next row into one
    ``(F, P, dim)`` buffer, standardizes it in place as
    ``(x - means) / scales``, and the stacked ``matmul`` computes each
    margin exactly as ``x @ w``, so a model's bits do not depend on the
    others. A step adds every model's scaled row, times 0.0 where its margin
    is not violated, so no operand is masked. The steps write into five
    buffers made once per call (weights, rows, margins, violations, update
    factors).
    """
    shape = (len(rows),) + X.shape[1:]
    n = np.array([r.size for r in rows])[:, None, None]  # (F, 1, 1): per set, broadcast over (P, dim)
    n_max = int(n.max())
    lam = 1.0 / (C * n)
    rngs = {size: _ShuffleStream(seed) for size in set(n.ravel().tolist())}
    steps = np.arange(1, n_max + 1)[:, None, None, None]  # step within the epoch
    active = steps <= n  # (n_max, F, 1, 1): False on the padding past a set's size
    order = np.zeros((n_max, len(rows)), dtype=np.intp)  # row of each set's t-th step
    W = np.zeros(shape)
    x = np.empty(shape)  # each set's row of the step, for all P matrices
    margin = np.empty(shape[:2] + (1, 1))
    y_margin = margin[..., 0]  # (F, P, 1), aligned with the per-set factors
    violated = np.empty(shape[:2] + (1,), dtype=bool)
    c = np.empty(violated.shape)  # each model's update factor: coef where violated, else 0.0
    x_row, w_col = x[..., None, :], W[..., :, None]  # each model's (1, dim) @ (dim, 1)
    for epoch in range(epochs):
        draws = {size: rng.permutation(size) for size, rng in rngs.items()}
        for f, r in enumerate(rows):
            order[: r.size, f] = r[draws[r.size]]
        y_epoch = y[order][..., None, None]
        eta = 1.0 / (lam * (epoch * n + steps))
        shrink = np.where(active, 1.0 - eta * lam, 1.0)
        coef = np.where(active, eta * y_epoch, 0.0)
        for rows_t, y_t, shrink_t, coef_t in zip(order, y_epoch, shrink, coef):
            # mode="clip": with the default "raise", take buffers its output.
            X.take(rows_t, axis=0, out=x, mode="clip")
            x -= means
            x /= scales
            np.matmul(x_row, w_col, out=margin)
            np.multiply(y_t, y_margin, out=y_margin)
            np.less(y_margin, 1.0, out=violated)
            W *= shrink_t
            # A step without a violation (or past a set's size) adds x * 0.0, a
            # signed zero, which leaves W's bits unchanged: W starts at +0.0 and
            # no shrink factor is negative, so W is never -0.0, and w + (±0.0)
            # == w. A non-finite row still makes W non-finite, which raises.
            np.multiply(coef_t, violated, out=c)
            x *= c
            W += x
    if not np.isfinite(W).all():
        raise TrainingError(f"training diverged to non-finite weights with C = {C}")
    W.flags.writeable = False
    return W


def _ratio(num, den) -> np.ndarray:
    """``num / den``, and 0.0 where ``den`` is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def f1_accuracy(margins, gold) -> tuple[np.ndarray, np.ndarray]:
    """F1 of the +1 (happy) class and accuracy of each ``(..., n)`` row of margins against ``gold``.

    A margin ``>= 0`` calls +1, so a row of ±1 labels scores as itself. F1
    is 0.0 where undefined. Precision and recall are quotients of counts,
    then F1 is ``2 p r / (p + r)``: the bits of the same arithmetic on floats.
    """
    margins, gold = np.asarray(margins), np.asarray(gold)
    if gold.ndim == 0 or gold.shape[-1] == 0 or margins.shape[-1:] != gold.shape[-1:]:
        raise ValueError("margins and gold must be non-empty rows of equal length")
    called, actual = margins >= 0, gold == 1
    tp = np.sum(called & actual, axis=-1)
    precision, recall = _ratio(tp, np.sum(called, axis=-1)), _ratio(tp, np.sum(actual, axis=-1))
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return f1, np.mean(called == actual, axis=-1)


def _check_training(folds: int, seed: int, C: float, epochs: int) -> None:
    """Refuse, in this order, the ``cross_validate`` settings no data can make valid;
    ``experiments.check_settings`` calls it too, before any input is read."""
    if epochs < 1:
        raise TrainingError(f"epochs must be >= 1, got {epochs}")
    if not 0.0 < C < np.inf:
        raise TrainingError(f"C must be positive and finite, got {C}")
    if folds < 2:
        raise TrainingError("folds must be >= 2")
    _ShuffleStream(seed)


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold index per example: per-class seeded shuffle, then round-robin.

    The +1 class is shuffled by the first shuffle of ``random.Random(seed)``
    and the -1 class by the second.
    """
    assignment = np.empty(y.shape[0], dtype=int)
    rng = _ShuffleStream(seed)
    for cls in (1, -1):
        idx = np.flatnonzero(y == cls)
        if idx.size < folds:
            raise TrainingError(f"class {cls:+d} has {idx.size} members, fewer than {folds} folds")
        assignment[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % folds
    return assignment


def cross_validate(
    X: np.ndarray, y: np.ndarray, folds: int = 10, seed: int = 42, C: float = 1.0, epochs: int = 200
) -> np.ndarray:
    """Pooled out-of-fold margins of each matrix in a ``(P, n, dim)`` stack (one matrix: ``X[None]``).

    The P matrices share the n rows labelled by ``y`` and one stratified
    fold assignment; row p of the float64 ``(P, n)`` result holds matrix p's
    held-out margins, each with the bits of a lone ``x @ w`` on the fold's
    standardized row. Any other shape raises :class:`TrainingError`, as do
    ``folds < 2``, a negative seed, a class of fewer than ``folds`` rows,
    ``epochs < 1`` and a ``C`` that is not positive and finite, all before
    the first fit, so every fold's training split holds both classes.
    Standardization is fitted on each fold's training split only, so
    held-out rows never leak into it; the bias column of ones appended
    after it gets mean 0 and scale 1. The fits read ``X`` itself; then ``X``
    is copied once into the rows-first ``(n, P, dim + 1)`` stack the
    trainer reads, and dropped, so a stack passed as a temporary is freed
    before training. All P x ``folds`` models train in one lockstep call,
    and each fold's held-out rows are scored for all P matrices in one
    batched product.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 3 or X.shape[1] != len(y):
        raise TrainingError(f"X must be a (P, n, dim) stack with n = {len(y)} labels, got shape {X.shape}")
    _check_training(folds, seed, C, epochs)
    P, n, dim = X.shape
    assignment = _stratified_folds(y, folds, seed)
    held = [assignment == k for k in range(folds)]
    rows = [np.flatnonzero(~mask) for mask in held]
    # Fitted before the copy, so a fit's gather of X's training rows never sits beside it.
    means, scales = np.zeros((folds, P, dim + 1)), np.ones((folds, P, dim + 1))
    for k, r in enumerate(rows):
        means[k, :, :dim], scales[k, :, :dim] = _standardize_fit(X, r)
    rows_first = np.ones((n, P, dim + 1))  # the last column is the bias's ones
    rows_first[..., :dim] = X.transpose(1, 0, 2)
    del X
    W = _train(rows_first, y, rows, means, scales, C, epochs, seed)
    pooled = np.empty((P, n))
    for k, mask in enumerate(held):
        # A C-contiguous (P, m, dim + 1) block, so each margin has the bits of a lone x @ w.
        held_out = np.ascontiguousarray(rows_first[mask].transpose(1, 0, 2))
        held_out -= means[k, :, None]
        held_out /= scales[k, :, None]
        pooled[:, mask] = np.matmul(held_out, W[k][..., None])[..., 0]
    return pooled
