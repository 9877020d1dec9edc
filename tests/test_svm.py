import functools
import inspect
import random
import re
import tracemalloc

import numpy as np
import pytest

from plotarc import svm
from plotarc.corpus import demo_lexicon, generate_synthetic_corpus
from plotarc.experiments import ClassifierConfig, feature_matrix, prepare_inputs, run_partition_sweep
from plotarc.svm import (
    TrainingError,
    _ShuffleStream,
    _standardize_fit,
    _stratified_folds,
    _train,
    cross_validate,
    f1_accuracy,
)


def reference_train(X, y, C=1.0, epochs=200, seed=42):
    """The per-sample Pegasos loop for one model: the bit-exact oracle.

    It has no bias of its own: rows that carry a ones column give the bias
    as that column's weight, penalized like the rest.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, dim = X.shape
    lam = 1.0 / (C * n)
    rng = random.Random(seed)
    w = np.zeros(dim)
    t = 0
    for _ in range(epochs):
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            xi, yi = X[i], y[i]
            if yi * (xi @ w) < 1.0:
                w = (1.0 - eta * lam) * w + eta * yi * xi
            else:
                w = (1.0 - eta * lam) * w
    return w


def reference_standardize_fit(X):
    """``np.mean`` and ``np.std`` over axis -2, with 1.0 for a zero std: the standardization's bit oracle."""
    X = np.asarray(X, dtype=float)
    scales = X.std(axis=-2)
    return X.mean(axis=-2), np.where(scales > 0.0, scales, 1.0)


def reference_stratified_folds(y, folds, seed):
    """``_stratified_folds`` shuffling each class with one ``random.Random``: the shuffle-stream oracle."""
    assignment = np.empty(len(y), dtype=int)
    rng = random.Random(seed)
    for cls in (1, -1):
        idx = np.flatnonzero(y == cls).tolist()
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def reference_dcd(X, y, C=1.0, tol=1e-10, max_epochs=20_000, seed=0):
    """Dual coordinate descent for the L1-loss linear SVM (Hsieh et al., ICML 2008).

    Solves min 1/2 (||w||^2 + b^2) + C sum_i max(0, 1 - y_i (w . x_i + b)),
    the bias being a penalized constant feature, as LIBLINEAR does. Stops
    once the projected gradients span less than ``tol``. Returns ``w``,
    ``b`` and the dual variables ``alpha``.
    """
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    alpha = np.zeros(len(y))
    wa = np.zeros(Xa.shape[1])
    q_ii = np.einsum("ij,ij->i", Xa, Xa)
    rng = np.random.default_rng(seed)
    for _ in range(max_epochs):
        lo, hi = np.inf, -np.inf
        for i in rng.permutation(len(y)):
            g = y[i] * (Xa[i] @ wa) - 1.0
            pg = min(g, 0.0) if alpha[i] == 0.0 else max(g, 0.0) if alpha[i] == C else g
            lo, hi = min(lo, pg), max(hi, pg)
            if pg != 0.0:
                old = alpha[i]
                alpha[i] = min(max(old - g / q_ii[i], 0.0), C)
                wa += (alpha[i] - old) * y[i] * Xa[i]
        if hi - lo < tol:
            break
    return wa[:-1], wa[-1], alpha


def primal_objective(w, X, y, C=1.0):
    """1/2 ||w||^2 + C sum of hinge losses on rows that carry a ones column, so
    the bias is penalized: the trainer's objective times C n."""
    return float(0.5 * (w @ w) + C * np.maximum(0.0, 1.0 - y * (X @ w)).sum())


def reference_cv_margins(X, y, folds, seed, C, epochs):
    """Out-of-fold margins from one product per (fold, matrix) model: the batching oracle."""
    assignment = _stratified_folds(y, folds, seed)
    held = [assignment == k for k in range(folds)]
    rows = [np.flatnonzero(~mask) for mask in held]
    fits = [_standardize_fit(X, r) for r in rows]
    # The bias column, appended here by hand: ones, standardized by mean 0 and scale 1.
    ones = np.ones((X.shape[0], 1))
    bias_fits = [(np.hstack([means, 0 * ones]), np.hstack([scales, ones])) for means, scales in fits]
    Xa = np.stack([np.hstack([m, np.ones((len(m), 1))]) for m in X], axis=1)
    W = _train(Xa, y, rows, *stack_fits(bias_fits), C, epochs, seed)
    pooled = np.empty(X.shape[:2])
    for k, ((means, scales), mask) in enumerate(zip(fits, held)):
        for p in range(X.shape[0]):
            Xs = np.hstack([(X[p, mask] - means[p]) / scales[p], np.ones((mask.sum(), 1))])
            pooled[p, mask] = Xs @ W[k, p]
    return pooled, held


def reference_confusion_counts(predictions, gold):
    """The scalar counts ``f1_accuracy`` must reproduce."""
    tp = int(np.sum((predictions == 1) & (gold == 1)))
    fp = int(np.sum((predictions == 1) & (gold == -1)))
    tn = int(np.sum((predictions == -1) & (gold == -1)))
    fn = int(np.sum((predictions == -1) & (gold == 1)))
    return tp, fp, tn, fn


def reference_f1_score(predictions, gold):
    """F1 of the +1 class on Python numbers, 0.0 when undefined: the scorer's bit-exact oracle."""
    tp, fp, _, fn = reference_confusion_counts(predictions, gold)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def reference_accuracy_score(predictions, gold):
    return float(np.mean(predictions == gold))


def signs(X, w):
    """+1 where ``X @ w >= 0``, else -1: the side of the hyperplane each row falls on."""
    return np.where(X @ w >= 0.0, 1, -1)


def hinge_objective(w, X, y, lam):
    margins = 1.0 - y * (X @ w)
    return float(np.maximum(margins, 0.0).mean() + 0.5 * lam * (w @ w))


def identity(F, P, dim):
    """``(means, scales)`` that leave every value's bits unchanged."""
    return np.zeros((F, P, dim)), np.ones((F, P, dim))


def with_ones(X):
    """``X`` with a trailing column of ones, whose weight is the bias."""
    return np.concatenate([X, np.ones(np.shape(X)[:-1] + (1,))], axis=-1)


def fit(X, y, C=1.0, epochs=200, seed=42):
    """Weights of one model (P = F = 1) on all rows of ``X``, unstandardized."""
    W = _train(X[:, None], y, [np.arange(len(y))], *identity(1, 1, X.shape[1]), C, epochs, seed)
    return W[0, 0]


def stack_fits(fits):
    """``(F, P, dim)`` means and scales from one ``(P, dim)`` fit per row set."""
    return tuple(np.stack(arrays) for arrays in zip(*fits))


def labelled_stack(P, n, seed, dim=11):
    """A ``(P, n, dim)`` stack of unrelated matrices with a class signal, and labels alternating +1, -1."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2 == 0, 1, -1)
    X = rng.normal(size=(P, n, dim)) * rng.uniform(0.5, 4.0, size=(P, 1, dim))
    X[:, y == 1] += rng.normal(0.4, 0.3, size=(P, 1, dim))
    return X, y


def separable_set(seed=0, per_class=20, spread=0.3):
    rng = np.random.default_rng(seed)
    pos = rng.normal([2.0, 0.0], spread, size=(per_class, 2))
    neg = rng.normal([-2.0, 0.0], spread, size=(per_class, 2))
    X = np.vstack([pos, neg])
    y = np.array([1] * per_class + [-1] * per_class)
    return X, y


class TestStandardize:
    def test_two_point_statistics(self):
        means, scales = _standardize_fit(np.array([[0.0, 5.0], [2.0, 5.0]]), np.arange(2))
        assert means[0] == 1.0 and scales[0] == 1.0

    def test_constant_column_guarded(self):
        means, scales = _standardize_fit(np.full((4, 2), 5.0), np.arange(4))
        np.testing.assert_array_equal(means, [5.0, 5.0])
        np.testing.assert_array_equal(scales, [1.0, 1.0])

    def test_transformed_training_matrix_centered(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 5)) * 10
        means, scales = _standardize_fit(X, np.arange(30))
        Xs = (X - means) / scales
        np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Xs.std(axis=0), 1.0, atol=1e-9)

    @pytest.mark.parametrize("feature_set", [3, 6])
    def test_fold_fits_of_a_sweep_stack_have_mean_and_std_bits(self, feature_set):
        # One gathered copy, its deviations squared in place, against
        # np.mean and np.std on each fold's training rows of a 37-point stack.
        lexicon = demo_lexicon()
        inputs = prepare_inputs(generate_synthetic_corpus(1, 212, 600, 4, lexicon), lexicon)
        X = np.stack([feature_matrix(inputs.vectors, k, feature_set) for k in range(37, 0, -1)])
        before = X.copy()
        assignment = _stratified_folds(inputs.labels, 10, 42)
        for k in range(10):
            rows = np.flatnonzero(assignment != k)
            reference = reference_standardize_fit(X[:, rows])
            assert [a.tobytes() for a in _standardize_fit(X, rows)] == [a.tobytes() for a in reference]
            # A matrix's fit does not depend on the others in the stack: a
            # ladder's one-matrix stack gets the bits of its sweep point's.
            for p in range(37):
                assert [a.tobytes() for a in _standardize_fit(X[p : p + 1], rows)] == [
                    a[p : p + 1].tobytes() for a in reference
                ]
        assert X.tobytes() == before.tobytes()  # the caller's stack is left as it was


class TestShuffleStream:
    """The stream's draws, pinned: a change to CPython's ``shuffle`` fails here
    instead of moving the CLI's bytes silently."""

    # _stratified_folds(y, 10, 42) for the 212 labels of test_stratified_folds_are_pinned, one digit each.
    FOLDS_106_106_10_42 = (
        "36876005683332992109532223376434237565877481822556139482008364597904592"
        "29208482041341108258566078361015600648347746680096137904165145841956776"
        "4059403196917270918373258405698139353524291157922757145023187214478910"
    )

    @pytest.mark.parametrize("seed,first,second", [
        (0, [7, 8, 1, 5, 3, 4, 2, 0, 9, 6], [3, 0, 4, 1, 2]),
        (42, [7, 3, 2, 8, 5, 6, 9, 4, 0, 1], [1, 2, 0, 3, 4]),
        (2**64 + 1, [2, 8, 9, 3, 0, 5, 7, 4, 6, 1], [1, 0, 3, 2, 4]),
    ])
    def test_first_permutations_are_pinned(self, seed, first, second):
        stream = _ShuffleStream(seed)
        got = stream.permutation(10)
        assert got.dtype == np.intp and got.tolist() == first
        assert stream.permutation(5).tolist() == second
        assert stream.permutation(0).tolist() == [] and stream.permutation(1).tolist() == [0]

    def test_stratified_folds_are_pinned(self):
        y = np.random.default_rng(106).permutation(np.r_[np.ones(106, int), -np.ones(106, int)])
        assert "".join(map(str, _stratified_folds(y, 10, 42))) == self.FOLDS_106_106_10_42

    @pytest.mark.parametrize("n_pos,n_neg,folds,seed", [
        (106, 106, 10, 42), (20, 31, 5, 0), (3, 40, 3, 2**40), (50, 7, 7, 2**64 + 1),
    ])
    def test_stratified_folds_match_reference(self, n_pos, n_neg, folds, seed):
        y = np.random.default_rng(n_pos).permutation(np.r_[np.ones(n_pos, int), -np.ones(n_neg, int)])
        got = _stratified_folds(y, folds, seed)
        assert got.tobytes() == reference_stratified_folds(y, folds, seed).tobytes()

    @pytest.mark.parametrize("seed", [-1, -(2**64)])
    def test_negative_seed_rejected(self, seed):
        X, y = separable_set()
        with pytest.raises(TrainingError, match=f"seed must be a non-negative integer, got {seed}$"):
            cross_validate(X[None], y, folds=5, seed=seed, epochs=1)
        with pytest.raises(TrainingError, match="seed"):
            _ShuffleStream(seed)


class TestTrain:
    def test_separable_perfect_training_accuracy(self):
        X, y = separable_set()
        X = with_ones(X + 5.0)  # off-center, so the bias must do its part
        w = fit(X, y, seed=7)
        assert np.array_equal(signs(X, w), y)

    def test_deterministic(self):
        X, y = separable_set()
        X = with_ones(X)
        assert fit(X, y, seed=7).tobytes() == fit(X, y, seed=7).tobytes()

    def test_flipped_labels_negate_decision(self):
        X, y = separable_set(seed=3)
        X = with_ones(X)
        a = fit(X, y, seed=7)
        b = fit(X, -y, seed=7)
        np.testing.assert_array_equal(signs(X, a), -signs(X, b))

    def test_single_class_rejected(self):
        X, _ = separable_set()
        with pytest.raises(TrainingError, match="class -1 has 0 members"):
            cross_validate(X[None], np.ones(X.shape[0]), folds=5, epochs=1)

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_epochs_below_one_rejected(self, epochs):
        X, y = separable_set()
        with pytest.raises(TrainingError, match=f"epochs must be >= 1, got {epochs}$"):
            cross_validate(X[None], y, folds=5, epochs=epochs)

    @pytest.mark.parametrize("C", [0.0, -1.0, np.nan, np.inf, 1e308])
    def test_c_not_positive_and_finite_rejected(self, C):
        # 1e308 passes the range check but overflows the step size.
        X, y = separable_set()
        with pytest.raises(TrainingError, match="finite"):
            cross_validate(X[None], y, folds=5, C=C, epochs=1)

    @pytest.mark.parametrize("setting", [{"epochs": 0}, {"C": float("inf")}], ids=["epochs=0", "C=inf"])
    def test_settings_refused_before_any_fit(self, setting, monkeypatch):
        # The fold fits come before the rows-first copy, so no fit means no copy either.
        calls = []
        monkeypatch.setattr(svm, "_standardize_fit", lambda *args: calls.append(args))
        X, y = separable_set()
        with pytest.raises(TrainingError):
            cross_validate(X[None], y, folds=5, **setting)
        assert calls == []

    def test_objective_decreases(self):
        X, y = separable_set(seed=5)
        X = with_ones(X)
        lam = 1.0 / X.shape[0]
        initial = hinge_objective(np.zeros(3), X, y, lam)
        final = hinge_objective(fit(X, y, C=1.0, epochs=50, seed=1), X, y, lam)
        assert final < initial


class TestLockstep:
    """P x F models stepped together equal P x F lone runs of the per-sample loop, bit for bit."""

    @pytest.mark.parametrize("sizes", [(7, 10, 13), (12,), (10, 10)])
    @pytest.mark.parametrize("dim", [11, 44])
    @pytest.mark.parametrize("epochs,seed", [(1, 0), (3, 42), (20, 7)])
    def test_ragged_sets_match_reference(self, sizes, dim, epochs, seed):
        rng = np.random.default_rng(dim * 100 + epochs)
        n = 16
        # Two raw matrices over the same rows, with different column scales and offsets.
        X = rng.normal(size=(2, n, dim)) * rng.uniform(0.5, 3.0, size=(2, 1, dim))
        X += rng.normal(size=(2, 1, dim))
        y = np.where(rng.random(n) < 0.5, 1, -1)
        y[:2] = (1, -1)
        # Every set holds rows 0 and 1, so both classes, plus random others.
        rows = [
            np.sort(np.r_[0, 1, rng.choice(np.arange(2, n), size - 2, replace=False)])
            for size in sizes
        ]
        if sizes == (10, 10):
            # Equal sizes share one permutation draw but must still visit different rows.
            assert not np.array_equal(rows[0], rows[1])
        # Each matrix carries a ones column, which its fit maps to 1.0.
        X = with_ones(X)
        fits = [_standardize_fit(X, r) for r in rows]
        for means, scales in fits:
            means[:, -1], scales[:, -1] = 0.0, 1.0
        rows_first = X.transpose(1, 0, 2)
        W = _train(rows_first, y, rows, *stack_fits(fits), 0.8, epochs, seed)
        assert W.shape == (len(sizes), 2, dim + 1)
        for p in range(2):
            for f, (r, (means, scales)) in enumerate(zip(rows, fits)):
                Xs = (X[p, r] - means[p]) / scales[p]
                assert np.all(Xs[:, -1] == 1.0)
                w_ref = reference_train(Xs, y[r], C=0.8, epochs=epochs, seed=seed)
                # Compare the bit patterns, so even the sign of a zero must agree.
                assert W[f, p].tobytes() == w_ref.tobytes()

    def test_benchmark_shape_matches_reference(self):
        # The sweep benchmark's shape: 37 matrices, 10 folds training on
        # 190 or 191 of 212 rows, 11 features plus the ones column, 2 epochs.
        rng = np.random.default_rng(37)
        y = np.where(np.arange(212) < 102, 1, -1)
        X = rng.normal(size=(37, 212, 11)) * rng.uniform(0.5, 3.0, size=(37, 1, 11))
        X[:, y == 1] += rng.normal(0.3, 0.2, size=(37, 1, 11))
        X = with_ones(X)
        rows = [np.flatnonzero(_stratified_folds(y, 10, 42) != k) for k in range(10)]
        assert sorted({r.size for r in rows}) == [190, 191]
        fits = [_standardize_fit(X, r) for r in rows]
        for means, scales in fits:
            means[:, -1], scales[:, -1] = 0.0, 1.0
        W = _train(X.transpose(1, 0, 2), y, rows, *stack_fits(fits), 1.0, 2, 42)
        assert W.shape == (10, 37, 12)
        for f, p in [(0, 0), (1, 36), (2, 18), (5, 7), (9, 0), (9, 36)]:
            means, scales = fits[f]
            Xs = (X[p, rows[f]] - means[p]) / scales[p]
            assert W[f, p].tobytes() == reference_train(Xs, y[rows[f]], epochs=2, seed=42).tobytes()


class TestF1:
    def test_perfect(self):
        y = np.array([1, -1, 1, -1])
        f1, accuracy = f1_accuracy(y, y)
        assert f1 == 1.0 and accuracy == 1.0

    def test_all_positive_half_gold(self):
        gold = np.array([1, 1, -1, -1])
        preds = np.ones(4, dtype=int)
        assert f1_accuracy(preds, gold)[0] == pytest.approx(2 / 3)

    def test_no_predicted_positives(self):
        gold = np.array([1, 1, -1, -1])
        preds = -np.ones(4, dtype=int)
        assert f1_accuracy(preds, gold)[0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            f1_accuracy(np.array([1]), np.array([1, -1]))

    def test_positive_margin_calls_happy(self):
        assert f1_accuracy([3.0, 0.5], [1, -1]) == (2 / 3, 0.5)

    def test_negative_margin_calls_unhappy(self):
        assert f1_accuracy([-3.0, -0.5], [1, -1]) == (0.0, 0.5)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_margin_counts_as_happy(self, zero):
        assert f1_accuracy([zero, -1.0], [1, -1]) == (1.0, 1.0)
        assert f1_accuracy([zero], [-1]) == (0.0, 0.0)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        margins = rng.normal(size=(4, 50))
        margins[:, ::7] = 0.0
        gold = np.where(rng.random(50) < 0.5, 1, -1)
        expected = [a.tobytes() for a in f1_accuracy(margins, gold)]
        for scale in (13.0, 1e-3, rng.uniform(0.1, 10.0, size=(4, 50))):
            assert [a.tobytes() for a in f1_accuracy(margins * scale, gold)] == expected

    @pytest.mark.parametrize("gold_kind", ["mixed", "no_positives", "all_positive"])
    def test_rows_match_scalar_reference_bit_for_bit(self, gold_kind):
        rng = np.random.default_rng(3)
        n = 29
        gold = {
            "mixed": np.where(rng.random(n) < 0.4, 1, -1),
            "no_positives": -np.ones(n, dtype=int),
            "all_positive": np.ones(n, dtype=int),
        }[gold_kind]
        rows = np.vstack([
            np.where(rng.random((20, n)) < rng.random((20, 1)), 1, -1),  # random rows
            np.ones(n, dtype=int),
            -np.ones(n, dtype=int),
            gold,  # perfect
            -gold,  # every label wrong
        ])
        f1, accuracy = f1_accuracy(rows, gold)
        assert f1.shape == accuracy.shape == (len(rows),)
        for row, f, a in zip(rows, f1, accuracy):
            assert f.tobytes() == np.float64(reference_f1_score(row, gold)).tobytes()
            assert a.tobytes() == np.float64(reference_accuracy_score(row, gold)).tobytes()
        # Any leading shape: the same rows as a (2, 12, n) stack score the same.
        stacked = f1_accuracy(rows.reshape(2, -1, n), gold)
        assert stacked[0].tobytes() == f1.tobytes()
        assert stacked[1].tobytes() == accuracy.tobytes()

    def test_fold_scores_are_the_same_call_on_fold_columns(self):
        X, y = separable_set(per_class=15, spread=2.0)
        margins = cross_validate(X[None], y, folds=5, seed=1, epochs=20)
        assignment = _stratified_folds(y, 5, 1)
        for k in range(5):
            mask = assignment == k
            labels = np.where(margins[0, mask] >= 0.0, 1, -1)
            f1, accuracy = f1_accuracy(margins[:, mask], y[mask])
            assert f1[0] == reference_f1_score(labels, y[mask])
            assert accuracy[0] == reference_accuracy_score(labels, y[mask])


class TestCrossValidate:
    def test_stratified_fold_sizes(self):
        _, y = separable_set(per_class=20)
        assignment = _stratified_folds(y, folds=10, seed=42)
        for k in range(10):
            fold = assignment == k
            assert fold.sum() == 4
            assert np.sum(fold & (y == 1)) == 2

    def test_separable_high_f1(self):
        X, y = separable_set(per_class=20)
        margins = cross_validate(X[None], y, folds=10, seed=42, epochs=50)
        assert margins.shape == (1, len(y)) and margins.dtype == np.float64
        assert f1_accuracy(margins, y)[0][0] >= 0.95

    def test_deterministic(self):
        X, y = separable_set(per_class=12)
        a = cross_validate(X[None], y, folds=4, seed=9, epochs=30)
        b = cross_validate(X[None], y, folds=4, seed=9, epochs=30)
        assert a.tobytes() == b.tobytes()

    def test_class_smaller_than_folds_rejected(self):
        X, y = separable_set(per_class=4)
        with pytest.raises(TrainingError):
            cross_validate(X[None], y, folds=5)

    def test_single_matrix_must_be_stacked(self):
        X, y = separable_set()
        with pytest.raises(TrainingError, match="stack"):
            cross_validate(X, y, folds=5, epochs=1)

    def test_misshapen_stack_rejected(self):
        X, y = labelled_stack(3, 23, seed=1)
        for bad in (X[0], X[:, :-1], X[0, 0]):  # 2-D, n != len(y), 1-D
            with pytest.raises(TrainingError, match=re.escape(f"got shape {bad.shape}")):
                cross_validate(bad, y, folds=4, epochs=1)

    @pytest.mark.parametrize("P, n", [(3, 212), (37, 212), (37, 41), (37, 22), (37, 39)])
    def test_one_shot_iterable_matches_the_stack(self, P, n):
        # The whole stack in one call, against one product per (fold,
        # matrix) model, byte for byte: a lone matrix, the sweep's 37 points
        # on 212 novels, and the benchmark's ragged period groups of 41, 22
        # and 39 novels.
        X, y = labelled_stack(P, n, seed=P + n)
        margins = cross_validate(X, y, folds=10, seed=7, epochs=2)
        pooled, _ = reference_cv_margins(X, y, folds=10, seed=7, C=1.0, epochs=2)
        assert margins.shape == pooled.shape and margins.dtype == pooled.dtype == np.float64
        assert margins.tobytes() == pooled.tobytes()

    def test_stack_shares_one_fold_assignment(self):
        X, y = separable_set(per_class=15)
        stack = np.stack([X, X * 3.0 + 1.0, X[:, ::-1]])
        batched = cross_validate(stack, y, folds=5, seed=3, epochs=10)
        alone = np.concatenate([cross_validate(m[None], y, folds=5, seed=3, epochs=10) for m in stack])
        assert batched.shape == (3, len(y)) and batched.dtype == alone.dtype
        assert batched.tobytes() == alone.tobytes()

    def test_batched_prediction_matches_per_model_loop(self):
        # Three unrelated matrices, so a swapped matrix or fold index changes
        # the margins; 23 rows in 4 folds give ragged held-out sets (6/6/6/5).
        rng = np.random.default_rng(11)
        X = rng.normal(size=(3, 23, 5)) * rng.uniform(0.5, 4.0, size=(3, 1, 5))
        X += rng.normal(size=(3, 1, 5))
        y = np.where(np.arange(23) < 12, 1, -1)
        X[:, y == 1] += rng.normal(0.4, 0.3, size=(3, 1, 5))
        margins = cross_validate(X, y, folds=4, seed=5, C=0.5, epochs=7)
        pooled, held = reference_cv_margins(X, y, folds=4, seed=5, C=0.5, epochs=7)
        assert sorted(int(m.sum()) for m in held) == [5, 6, 6, 6]
        assert len({row.tobytes() for row in pooled}) == 3
        assert margins.shape == pooled.shape and margins.dtype == pooled.dtype == np.float64
        assert margins.tobytes() == pooled.tobytes()

    def test_leaves_the_input_stack_unchanged(self):
        # The trainer and the held-out scoring work in place, in buffers of their own.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(3, 23, 5))
        y = np.where(np.arange(23) < 12, 1, -1)
        before = X.copy()
        cross_validate(X, y, folds=4, seed=5, epochs=3)
        assert X.tobytes() == before.tobytes()

    def test_traced_peak_stays_near_the_stack_size(self):
        # A sweep-sized stack: 37 points x 212 novels x 11 features, 690 KB,
        # held by the caller. Measured peak: 1.72 x the stack: its rows-first
        # copy with the bias column (1.09 x), the fold fits, the trainer's
        # buffers and one fold's held-out block. Copying the stack through a
        # 256 KB chunk buffer first measured 2.05 x, and fitting the folds
        # after the rows-first copy is made 2.24 x. Materializing each epoch's
        # standardized (steps, P, F, dim) rows and updates instead peaks at
        # about 31 MB, 45 x.
        X = np.random.default_rng(0).normal(size=(37, 212, 11))
        y = np.where(np.arange(212) % 2 == 0, 1, -1)
        tracemalloc.start()
        try:
            cross_validate(X, y, folds=10, seed=42, epochs=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * X.nbytes

    def test_traced_peak_of_a_sweep_stays_near_its_stack(self):
        # run_partition_sweep on 212 novels x 75 segments: 37 matrices of
        # 212 x 11, a 690 KB stack. Measured peak: 2.24 x the stack, reached
        # at the rows-first copy (1.09 x), beside the stack and the fold fits;
        # the stack is freed before training. A caller that keeps the stack
        # alive (by a name, or through a ``**`` call's argument tuple) adds
        # training and scoring to that, 2.72 x.
        lexicon = demo_lexicon()
        inputs = prepare_inputs(generate_synthetic_corpus(1, 212, 600, 4, lexicon), lexicon)
        stack_bytes = 37 * 212 * 11 * 8
        tracemalloc.start()
        try:
            run_partition_sweep(inputs, config=ClassifierConfig(epochs=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * stack_bytes

    def test_no_leakage_from_held_out_rows(self):
        # Perturbing rows held out of fold 0 must not change the params
        # fitted on fold 0's training split.
        X, y = separable_set(per_class=10, seed=4)
        train_mask = _stratified_folds(y, folds=5, seed=42) != 0
        rows = np.flatnonzero(train_mask)
        means, scales = _standardize_fit(X, rows)
        X_perturbed = X.copy()
        X_perturbed[~train_mask] += 1e6
        means_after, scales_after = _standardize_fit(X_perturbed, rows)
        np.testing.assert_array_equal(means, means_after)
        np.testing.assert_array_equal(scales, scales_after)


# (generator seed, novels, tokens per novel, final_len): fold 0 of the first
# is linearly separable after standardization, fold 0 of the second is not.
CONVERGENCE_FOLDS = {"separable": (1, 60, 20_000, 4), "overlapping": (42, 100, 3_000, 20)}


@functools.cache
def training_fold(name):
    """Fold 0's training rows of feature set 3 on a planted corpus with an
    ending of 4 segments, and their ``(means, scales)``."""
    seed, n_novels, tokens, final_len = CONVERGENCE_FOLDS[name]
    lexicon = demo_lexicon()
    inputs = prepare_inputs(generate_synthetic_corpus(seed, n_novels, tokens, 4, lexicon), lexicon)
    X = feature_matrix(inputs.vectors, final_len, 3)
    rows = np.flatnonzero(_stratified_folds(inputs.labels, 10, 42) != 0)
    means, scales = _standardize_fit(X, rows)
    return X[rows], inputs.labels[rows], means, scales


class TestConvergence:
    def test_dcd_oracle_closes_its_duality_gap(self):
        X, y, means, scales = training_fold("separable")
        Xs = (X - means) / scales
        w, b, alpha = reference_dcd(Xs, y)
        wa = np.append(w, b)
        primal = primal_objective(wa, with_ones(Xs), y)
        dual = alpha.sum() - 0.5 * (wa @ wa)
        assert primal - dual < 1e-8 * primal
        # Separable: every training row is classified correctly.
        assert np.array_equal(signs(with_ones(Xs), wa), y)

    @pytest.mark.parametrize("name", sorted(CONVERGENCE_FOLDS))
    def test_trainer_reaches_the_optimum(self, name):
        # The trainer gets the rows cross_validate gives it: the fold's
        # standardization, then a ones column with mean 0 and scale 1. The
        # DCD solution is a point of the same objective, so its value bounds
        # the optimum from above. Measured at 200 epochs: 1.024 x that value
        # on the separable fold and 1.002 x on the overlapping one.
        X, y, means, scales = training_fold(name)
        padded_fit = np.append(means, 0.0)[None, None], with_ones(scales)[None, None]
        W = _train(with_ones(X)[:, None], y, [np.arange(len(y))], *padded_fit, 1.0, 200, 42)
        Xs = (X - means) / scales
        bound = primal_objective(np.append(*reference_dcd(Xs, y)[:2]), with_ones(Xs), y)
        assert primal_objective(W[0, 0], with_ones(Xs), y) <= 1.05 * bound


def test_public_names_are_the_classifier_api():
    # The trainer, the standardization fit and the fold assignment are cross_validate's own.
    public = {
        name for name, obj in vars(svm).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == svm.__name__
    }
    assert public == {"cross_validate", "f1_accuracy", "TrainingError"}
