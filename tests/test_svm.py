import functools
import tracemalloc

import numpy as np
import pytest

from plotarc.corpus import demo_lexicon, generate_synthetic_corpus
from plotarc.experiments import feature_matrix, prepare_inputs
from plotarc.features import SectionPartition
from plotarc.svm import (
    TrainingError,
    cross_validate,
    f1_accuracy,
    predict,
    standardize_fit,
    stratified_folds,
    train_linear_svm,
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
    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            xi, yi = X[i], y[i]
            if yi * (xi @ w) < 1.0:
                w = (1.0 - eta * lam) * w + eta * yi * xi
            else:
                w = (1.0 - eta * lam) * w
    return w


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


def reference_cv_predictions(X, y, folds, seed, C, epochs):
    """Out-of-fold labels from one prediction per (fold, matrix) model: the batching oracle."""
    assignment = stratified_folds(y, folds, seed)
    held = [assignment == k for k in range(folds)]
    rows = [np.flatnonzero(~mask) for mask in held]
    fits = [standardize_fit(X[:, r]) for r in rows]
    # The bias column, appended here by hand: ones, standardized by mean 0 and scale 1.
    ones = np.ones((X.shape[0], 1))
    bias_fits = [(np.hstack([means, 0 * ones]), np.hstack([scales, ones])) for means, scales in fits]
    Xa = np.stack([np.hstack([m, np.ones((len(m), 1))]) for m in X])
    W = train_linear_svm(Xa, y, rows, *stack_fits(bias_fits), C=C, epochs=epochs, seed=seed)
    pooled = np.empty(X.shape[:2], dtype=y.dtype)
    for k, ((means, scales), mask) in enumerate(zip(fits, held)):
        for p in range(X.shape[0]):
            Xs = np.hstack([(X[p, mask] - means[p]) / scales[p], np.ones((mask.sum(), 1))])
            pooled[p, mask] = np.where(Xs @ W[p, k] >= 0.0, 1, -1)
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


def hinge_objective(w, X, y, lam):
    margins = 1.0 - y * (X @ w)
    return float(np.maximum(margins, 0.0).mean() + 0.5 * lam * (w @ w))


def identity(P, F, dim):
    """``(means, scales)`` that leave every value's bits unchanged."""
    return np.zeros((P, F, dim)), np.ones((P, F, dim))


def with_ones(X):
    """``X`` with a trailing column of ones, whose weight is the bias."""
    return np.concatenate([X, np.ones(np.shape(X)[:-1] + (1,))], axis=-1)


def fit(X, y, **kwargs):
    """Weights of one model (P = F = 1) on all rows of ``X``, unstandardized."""
    X = np.asarray(X, dtype=float)
    W = train_linear_svm(X[None], y, [np.arange(len(y))], *identity(1, 1, X.shape[1]), **kwargs)
    return W[0, 0]


def stack_fits(fits):
    """``(P, F, dim)`` means and scales from one ``(P, dim)`` fit per row set."""
    return tuple(np.stack(arrays, axis=1) for arrays in zip(*fits))


def separable_set(seed=0, per_class=20, spread=0.3):
    rng = np.random.default_rng(seed)
    pos = rng.normal([2.0, 0.0], spread, size=(per_class, 2))
    neg = rng.normal([-2.0, 0.0], spread, size=(per_class, 2))
    X = np.vstack([pos, neg])
    y = np.array([1] * per_class + [-1] * per_class)
    return X, y


class TestStandardize:
    def test_two_point_statistics(self):
        means, scales = standardize_fit(np.array([[0.0, 5.0], [2.0, 5.0]]))
        assert means[0] == 1.0 and scales[0] == 1.0

    def test_constant_column_guarded(self):
        means, scales = standardize_fit(np.full((4, 2), 5.0))
        np.testing.assert_array_equal(means, [5.0, 5.0])
        np.testing.assert_array_equal(scales, [1.0, 1.0])

    def test_transformed_training_matrix_centered(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 5)) * 10
        means, scales = standardize_fit(X)
        Xs = (X - means) / scales
        np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Xs.std(axis=0), 1.0, atol=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(TrainingError):
            standardize_fit(np.zeros((1, 3)))


class TestTrain:
    def test_separable_perfect_training_accuracy(self):
        X, y = separable_set()
        X = with_ones(X + 5.0)  # off-center, so the bias must do its part
        w = fit(X, y, seed=7)
        assert np.array_equal(predict(X, w), y)

    def test_deterministic(self):
        X, y = separable_set()
        X = with_ones(X)
        assert fit(X, y, seed=7).tobytes() == fit(X, y, seed=7).tobytes()

    def test_flipped_labels_negate_decision(self):
        X, y = separable_set(seed=3)
        X = with_ones(X)
        a = fit(X, y, seed=7)
        b = fit(X, -y, seed=7)
        np.testing.assert_array_equal(predict(X, a), -predict(X, b))

    def test_single_class_rejected(self):
        X, _ = separable_set()
        n = X.shape[0]
        with pytest.raises(TrainingError):
            train_linear_svm(X[None], np.ones(n), [np.arange(n)], *identity(1, 1, 2))

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_epochs_below_one_rejected(self, epochs):
        X, y = separable_set()
        with pytest.raises(TrainingError, match="epochs"):
            train_linear_svm(X[None], y, [np.arange(len(y))], *identity(1, 1, 2), epochs=epochs)

    @pytest.mark.parametrize("C", [0.0, -1.0, np.nan, np.inf, 1e308])
    def test_c_not_positive_and_finite_rejected(self, C):
        # 1e308 passes the range check but overflows the step size.
        X, y = separable_set()
        with pytest.raises(TrainingError, match="finite"):
            train_linear_svm(X[None], y, [np.arange(len(y))], *identity(1, 1, 2), C=C)

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
        fits = [standardize_fit(X[:, r]) for r in rows]
        for means, scales in fits:
            means[:, -1], scales[:, -1] = 0.0, 1.0
        W = train_linear_svm(X, y, rows, *stack_fits(fits), C=0.8, epochs=epochs, seed=seed)
        assert W.shape == (2, len(sizes), dim + 1)
        for p in range(2):
            for f, (r, (means, scales)) in enumerate(zip(rows, fits)):
                Xs = (X[p, r] - means[p]) / scales[p]
                assert np.all(Xs[:, -1] == 1.0)
                w_ref = reference_train(Xs, y[r], C=0.8, epochs=epochs, seed=seed)
                # Compare the bit patterns, so even the sign of a zero must agree.
                assert W[p, f].tobytes() == w_ref.tobytes()

    def test_width_mismatch_rejected(self):
        X, y = separable_set()
        with pytest.raises(TrainingError):
            train_linear_svm(X[None], y, [np.arange(len(y))], *identity(1, 1, 1))


class TestPredict:
    W = np.array([1.0, 0.0])

    def test_positive_side(self):
        assert predict(np.array([[3.0, 5.0]]), self.W)[0] == 1

    def test_negative_side(self):
        assert predict(np.array([[-3.0, 5.0]]), self.W)[0] == -1

    def test_on_hyperplane_tiebreak_positive(self):
        assert predict(np.array([[0.0, 9.0]]), self.W)[0] == 1

    def test_positive_rescaling_invariance(self):
        w = np.array([1.5, -2.0, 0.7])
        X = with_ones(np.random.default_rng(2).normal(size=(50, 2)))
        np.testing.assert_array_equal(predict(X, w), predict(X, w * 13))


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
        pred = cross_validate(X[None], y, folds=5, seed=1, epochs=20)
        assignment = stratified_folds(y, 5, 1)
        for k in range(5):
            mask = assignment == k
            f1, accuracy = f1_accuracy(pred[:, mask], y[mask])
            assert f1[0] == reference_f1_score(pred[0, mask], y[mask])
            assert accuracy[0] == reference_accuracy_score(pred[0, mask], y[mask])


class TestCrossValidate:
    def test_stratified_fold_sizes(self):
        _, y = separable_set(per_class=20)
        assignment = stratified_folds(y, folds=10, seed=42)
        for k in range(10):
            fold = assignment == k
            assert fold.sum() == 4
            assert np.sum(fold & (y == 1)) == 2

    def test_separable_high_f1(self):
        X, y = separable_set(per_class=20)
        pred = cross_validate(X[None], y, folds=10, seed=42, epochs=50)
        assert pred.shape == (1, len(y))
        assert f1_accuracy(pred, y)[0][0] >= 0.95

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

    def test_stack_shares_one_fold_assignment(self):
        X, y = separable_set(per_class=15)
        stack = np.stack([X, X * 3.0 + 1.0, X[:, ::-1]])
        batched = cross_validate(stack, y, folds=5, seed=3, epochs=10)
        alone = np.concatenate([cross_validate(m[None], y, folds=5, seed=3, epochs=10) for m in stack])
        assert batched.shape == (3, len(y)) and batched.dtype == alone.dtype
        assert batched.tobytes() == alone.tobytes()

    def test_batched_prediction_matches_per_model_loop(self):
        # Three unrelated matrices, so a swapped matrix or fold index changes
        # the labels; 23 rows in 4 folds give ragged held-out sets (6/6/6/5).
        rng = np.random.default_rng(11)
        X = rng.normal(size=(3, 23, 5)) * rng.uniform(0.5, 4.0, size=(3, 1, 5))
        X += rng.normal(size=(3, 1, 5))
        y = np.where(np.arange(23) < 12, 1, -1)
        X[:, y == 1] += rng.normal(0.4, 0.3, size=(3, 1, 5))
        pred = cross_validate(X, y, folds=4, seed=5, C=0.5, epochs=7)
        pooled, held = reference_cv_predictions(X, y, folds=4, seed=5, C=0.5, epochs=7)
        assert sorted(int(m.sum()) for m in held) == [5, 6, 6, 6]
        assert len({row.tobytes() for row in pooled}) == 3
        assert pred.shape == pooled.shape and pred.dtype == pooled.dtype
        assert pred.tobytes() == pooled.tobytes()
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
        means, scales = standardize_fit(X[train_mask])
        X_perturbed = X.copy()
        X_perturbed[~train_mask] += 1e6
        means_after, scales_after = standardize_fit(X_perturbed[train_mask])
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
    X = feature_matrix(inputs, SectionPartition(75, final_len, 0), 3)
    rows = np.flatnonzero(stratified_folds(inputs.labels, 10, 42) != 0)
    means, scales = standardize_fit(X[rows])
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
        assert np.array_equal(predict(with_ones(Xs), wa), y)

    @pytest.mark.parametrize("name", sorted(CONVERGENCE_FOLDS))
    def test_trainer_reaches_the_optimum(self, name):
        # The trainer gets the rows cross_validate gives it: the fold's
        # standardization, then a ones column with mean 0 and scale 1. The
        # DCD solution is a point of the same objective, so its value bounds
        # the optimum from above. Measured at 200 epochs: 1.024 x that value
        # on the separable fold and 1.002 x on the overlapping one.
        X, y, means, scales = training_fold(name)
        padded_fit = np.append(means, 0.0)[None, None], with_ones(scales)[None, None]
        W = train_linear_svm(with_ones(X)[None], y, [np.arange(len(y))], *padded_fit)
        Xs = (X - means) / scales
        bound = primal_objective(np.append(*reference_dcd(Xs, y)[:2]), with_ones(Xs), y)
        assert primal_objective(W[0, 0], with_ones(Xs), y) <= 1.05 * bound
