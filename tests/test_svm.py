import tracemalloc

import numpy as np
import pytest

from plotarc.svm import (
    StandardizationParams,
    TrainingError,
    accuracy_score,
    confusion_counts,
    cross_validate,
    f1_score,
    predict,
    standardize_fit,
    stratified_folds,
    train_linear_svm,
)


def reference_train(X, y, C=1.0, epochs=200, seed=42):
    """The per-sample Pegasos loop for one model: the bit-exact oracle."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, dim = X.shape
    lam = 1.0 / (C * n)
    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            xi, yi = X[i], y[i]
            if yi * (xi @ w + b) < 1.0:
                w = (1.0 - eta * lam) * w + eta * yi * xi
                b = b + eta * yi
            else:
                w = (1.0 - eta * lam) * w
    return w, b


def reference_cv_predictions(X, y, folds, seed, C, epochs):
    """Out-of-fold labels from one prediction per (fold, matrix) model: the batching oracle."""
    assignment = stratified_folds(y, folds, seed)
    held = [assignment == k for k in range(folds)]
    rows = [np.flatnonzero(~mask) for mask in held]
    fits = [standardize_fit(X[:, r]) for r in rows]
    W, b = train_linear_svm(X, y, rows, stack_fits(fits), C=C, epochs=epochs, seed=seed)
    pooled = np.empty(X.shape[:2], dtype=y.dtype)
    for k, (fitted, mask) in enumerate(zip(fits, held)):
        for p in range(X.shape[0]):
            Xs = StandardizationParams(fitted.means[p], fitted.scales[p]).transform(X[p, mask])
            pooled[p, mask] = np.where(Xs @ W[p, k] + float(b[p, k]) >= 0.0, 1, -1)
    return pooled, held


def hinge_objective(w, b, X, y, lam):
    margins = 1.0 - y * (X @ w + b)
    return float(np.maximum(margins, 0.0).mean() + 0.5 * lam * (w @ w))


def identity(P, F, dim):
    """Standardization that leaves every value's bits unchanged."""
    return StandardizationParams(np.zeros((P, F, dim)), np.ones((P, F, dim)))


def fit(X, y, **kwargs):
    """Weights and bias of one model (P = F = 1) on all rows, unstandardized."""
    X = np.asarray(X, dtype=float)
    W, b = train_linear_svm(X[None], y, [np.arange(len(y))], identity(1, 1, X.shape[1]), **kwargs)
    return W[0, 0], b[0, 0]


def stack_fits(fits):
    """``(P, F, dim)`` parameters from one ``(P, dim)`` fit per row set."""
    return StandardizationParams(
        np.stack([f.means for f in fits], axis=1), np.stack([f.scales for f in fits], axis=1)
    )


def separable_set(seed=0, per_class=20, spread=0.3):
    rng = np.random.default_rng(seed)
    pos = rng.normal([2.0, 0.0], spread, size=(per_class, 2))
    neg = rng.normal([-2.0, 0.0], spread, size=(per_class, 2))
    X = np.vstack([pos, neg])
    y = np.array([1] * per_class + [-1] * per_class)
    return X, y


class TestStandardize:
    def test_two_point_statistics(self):
        params = standardize_fit(np.array([[0.0, 5.0], [2.0, 5.0]]))
        assert params.means[0] == 1.0 and params.scales[0] == 1.0

    def test_constant_column_guarded(self):
        params = standardize_fit(np.full((4, 2), 5.0))
        np.testing.assert_array_equal(params.means, [5.0, 5.0])
        np.testing.assert_array_equal(params.scales, [1.0, 1.0])

    def test_transformed_training_matrix_centered(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 5)) * 10
        params = standardize_fit(X)
        Xs = params.transform(X)
        np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Xs.std(axis=0), 1.0, atol=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(TrainingError):
            standardize_fit(np.zeros((1, 3)))


class TestTrain:
    def test_separable_perfect_training_accuracy(self):
        X, y = separable_set()
        w, b = fit(X, y, seed=7)
        assert np.array_equal(predict(X, w, b), y)

    def test_deterministic(self):
        X, y = separable_set()
        w_a, b_a = fit(X, y, seed=7)
        w_b, b_b = fit(X, y, seed=7)
        np.testing.assert_array_equal(w_a, w_b)
        assert b_a == b_b

    def test_flipped_labels_negate_decision(self):
        X, y = separable_set(seed=3)
        a = fit(X, y, seed=7)
        b = fit(X, -y, seed=7)
        np.testing.assert_array_equal(predict(X, *a), -predict(X, *b))

    def test_single_class_rejected(self):
        X, _ = separable_set()
        n = X.shape[0]
        with pytest.raises(TrainingError):
            train_linear_svm(X[None], np.ones(n), [np.arange(n)], identity(1, 1, 2))

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_epochs_below_one_rejected(self, epochs):
        X, y = separable_set()
        with pytest.raises(TrainingError, match="epochs"):
            train_linear_svm(X[None], y, [np.arange(len(y))], identity(1, 1, 2), epochs=epochs)

    @pytest.mark.parametrize("C", [0.0, -1.0, np.nan, np.inf, 1e308])
    def test_c_not_positive_and_finite_rejected(self, C):
        # 1e308 passes the range check but overflows the step size.
        X, y = separable_set()
        with pytest.raises(TrainingError, match="finite"):
            train_linear_svm(X[None], y, [np.arange(len(y))], identity(1, 1, 2), C=C)

    def test_objective_decreases(self):
        X, y = separable_set(seed=5)
        lam = 1.0 / X.shape[0]
        initial = hinge_objective(np.zeros(2), 0.0, X, y, lam)
        w, b = fit(X, y, C=1.0, epochs=50, seed=1)
        final = hinge_objective(w, b, X, y, lam)
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
        fits = [standardize_fit(X[:, r]) for r in rows]
        W, b = train_linear_svm(X, y, rows, stack_fits(fits), C=0.8, epochs=epochs, seed=seed)
        assert W.shape == (2, len(sizes), dim) and b.shape == (2, len(sizes))
        for p in range(2):
            for f, (r, fitted) in enumerate(zip(rows, fits)):
                Xs = StandardizationParams(fitted.means[p], fitted.scales[p]).transform(X[p, r])
                w_ref, b_ref = reference_train(Xs, y[r], C=0.8, epochs=epochs, seed=seed)
                # Compare the bit patterns, so even the sign of a zero must agree.
                assert W[p, f].tobytes() == w_ref.tobytes()
                assert b[p, f].tobytes() == np.float64(b_ref).tobytes()

    def test_width_mismatch_rejected(self):
        X, y = separable_set()
        with pytest.raises(TrainingError):
            train_linear_svm(X[None], y, [np.arange(len(y))], identity(1, 1, 1))


class TestPredict:
    W = np.array([1.0, 0.0])

    def test_positive_side(self):
        assert predict(np.array([[3.0, 5.0]]), self.W, 0.0)[0] == 1

    def test_negative_side(self):
        assert predict(np.array([[-3.0, 5.0]]), self.W, 0.0)[0] == -1

    def test_on_hyperplane_tiebreak_positive(self):
        assert predict(np.array([[0.0, 9.0]]), self.W, 0.0)[0] == 1

    def test_positive_rescaling_invariance(self):
        w = np.array([1.5, -2.0])
        X = np.random.default_rng(2).normal(size=(50, 2))
        np.testing.assert_array_equal(predict(X, w, 0.7), predict(X, w * 13, 0.7 * 13))


class TestF1:
    def test_perfect(self):
        y = np.array([1, -1, 1, -1])
        assert f1_score(y, y) == 1.0

    def test_all_positive_half_gold(self):
        gold = np.array([1, 1, -1, -1])
        preds = np.ones(4, dtype=int)
        assert f1_score(preds, gold) == pytest.approx(2 / 3)

    def test_no_predicted_positives(self):
        gold = np.array([1, 1, -1, -1])
        preds = -np.ones(4, dtype=int)
        assert f1_score(preds, gold) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            f1_score(np.array([1]), np.array([1, -1]))


class TestCrossValidate:
    def test_stratified_fold_sizes(self):
        X, y = separable_set(per_class=20)
        metrics = cross_validate(X[None], y, folds=10, seed=42, epochs=20)[0]
        assignment = np.array(metrics.fold_assignment)
        for k in range(10):
            fold = assignment == k
            assert fold.sum() == 4
            assert np.sum(fold & (y == 1)) == 2

    def test_separable_high_f1(self):
        X, y = separable_set(per_class=20)
        metrics = cross_validate(X[None], y, folds=10, seed=42, epochs=50)[0]
        assert metrics.f1 >= 0.95

    def test_confusion_sums_to_corpus_size(self):
        X, y = separable_set(per_class=15)
        metrics = cross_validate(X[None], y, folds=5, seed=1, epochs=20)[0]
        assert sum(metrics.confusion) == len(y)

    def test_deterministic(self):
        X, y = separable_set(per_class=12)
        a = cross_validate(X[None], y, folds=4, seed=9, epochs=30)[0]
        b = cross_validate(X[None], y, folds=4, seed=9, epochs=30)[0]
        assert a == b

    def test_class_smaller_than_folds_rejected(self):
        X, y = separable_set(per_class=4)
        with pytest.raises(TrainingError):
            cross_validate(X[None], y, folds=5)

    def test_single_matrix_must_be_stacked(self):
        X, y = separable_set()
        with pytest.raises(TrainingError, match="stack"):
            cross_validate(X, y, folds=5, epochs=1)

    def test_stack_shares_one_fold_assignment(self):
        X, y = separable_set(per_class=15)
        stack = np.stack([X, X * 3.0 + 1.0, X[:, ::-1]])
        batched = cross_validate(stack, y, folds=5, seed=3, epochs=10)
        assert batched == tuple(cross_validate(m[None], y, folds=5, seed=3, epochs=10)[0] for m in stack)

    def test_batched_prediction_matches_per_model_loop(self):
        # Three unrelated matrices, so a swapped matrix or fold index changes
        # the labels; 23 rows in 4 folds give ragged held-out sets (6/6/6/5).
        rng = np.random.default_rng(11)
        X = rng.normal(size=(3, 23, 5)) * rng.uniform(0.5, 4.0, size=(3, 1, 5))
        X += rng.normal(size=(3, 1, 5))
        y = np.where(np.arange(23) < 12, 1, -1)
        X[:, y == 1] += rng.normal(0.4, 0.3, size=(3, 1, 5))
        metrics = cross_validate(X, y, folds=4, seed=5, C=0.5, epochs=7)
        pooled, held = reference_cv_predictions(X, y, folds=4, seed=5, C=0.5, epochs=7)
        assert sorted(int(m.sum()) for m in held) == [5, 6, 6, 6]
        assert len({pred.tobytes() for pred in pooled}) == 3
        for m, pred in zip(metrics, pooled):
            assert m.f1 == f1_score(pred, y)
            assert m.accuracy == accuracy_score(pred, y)
            assert m.confusion == confusion_counts(pred, y)
            assert m.per_fold == tuple(
                (f1_score(pred[h], y[h]), accuracy_score(pred[h], y[h])) for h in held
            )

    def test_traced_peak_stays_near_the_stack_size(self):
        # A sweep-sized stack: 37 points x 212 novels x 11 features, 690 KB.
        # Measured peak: 2.04 x the stack (one fold's gathered training rows
        # and the std temporary). Materializing each epoch's standardized
        # (steps, P, F, dim) rows and updates instead peaks at about 31 MB, 45 x.
        X = np.random.default_rng(0).normal(size=(37, 212, 11))
        y = np.where(np.arange(212) % 2 == 0, 1, -1)
        tracemalloc.start()
        try:
            cross_validate(X, y, folds=10, seed=42, epochs=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * X.nbytes

    def test_no_leakage_from_held_out_rows(self):
        # Perturbing rows held out of fold 0 must not change the params
        # fitted on fold 0's training split.
        X, y = separable_set(per_class=10, seed=4)
        assignment = stratified_folds(y, folds=5, seed=42)
        train_mask = assignment != 0
        params = standardize_fit(X[train_mask])
        X_perturbed = X.copy()
        X_perturbed[~train_mask] += 1e6
        params_after = standardize_fit(X_perturbed[train_mask])
        np.testing.assert_array_equal(params.means, params_after.means)
        np.testing.assert_array_equal(params.scales, params_after.scales)
