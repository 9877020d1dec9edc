"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The slowest criterion (the full partition sweep) takes well under
five minutes.
"""

import random

import numpy as np
import pytest

from conftest import profile_of
from plotarc.cli import main
from plotarc.corpus import (
    Novel,
    NovelMetadata,
    demo_lexicon,
    generate_synthetic_corpus,
    segment_bounds,
)
from plotarc.experiments import (
    ClassifierConfig,
    RunInputs,
    feature_matrix,
    group_indices,
    prepare_inputs,
    run_partition_sweep,
)
from plotarc.features import SectionPartition
from plotarc.lexicon import parse_lexicon
from plotarc.svm import cross_validate, f1_accuracy, standardize_fit, stratified_folds


def check(name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"\n[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert condition, f"{name}: {detail}"


@pytest.fixture(scope="module")
def planted_inputs():
    lexicon = demo_lexicon()
    corpus = generate_synthetic_corpus(42, 100, 3000, 4, lexicon)
    return prepare_inputs(corpus, lexicon)


# ---------------------------------------------------------------------------
# 1. Lexicon golden test (exact)
# ---------------------------------------------------------------------------


def test_lexicon_golden():
    tsv = (
        "verabscheuen\t1\t0\t1\t1\t0\t1\t0\t0\t0\t0\n"
        "bewundernswert\t0\t0\t0\t0\t1\t0\t1\t0\t0\t1\n"
        "Zufall\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0\n"
    )
    lex = parse_lexicon(tsv)
    expected = {
        # (positive, negative, polarity, anger, anticipation, disgust,
        #  fear, joy, sadness, surprise, trust)
        "verabscheuen": (0, 1, -1, 1, 0, 1, 1, 0, 0, 0, 0),
        "bewundernswert": (1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1),
        "Zufall": (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    }
    ok = lex.size == 3 and all(
        tuple(lex.scores[lex.entries[lemma]]) == vals for lemma, vals in expected.items()
    )
    check("lexicon golden entries incl. derived polarity (-1, 1, 0)", ok)


# ---------------------------------------------------------------------------
# 2. Featurization oracle: independent brute-force reimplementation
# ---------------------------------------------------------------------------

# Ten entries as plain dicts: lemma -> 11 scores in canonical order.
_ORACLE_LEXICON = {
    "freud": [1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0],
    "glanz": [1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1],
    "treu": [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1],
    "hell": [1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0],
    "gram": [0, 1, -1, 0, 0, 0, 1, 0, 1, 0, 0],
    "zorn": [0, 1, -1, 1, 0, 1, 0, 0, 0, 0, 0],
    "angst": [0, 1, -1, 0, 1, 0, 1, 0, 1, 0, 0],
    "nacht": [0, 1, -1, 0, 0, 0, 1, 0, 1, 1, 0],
    "wunder": [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0],
    "bote": [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1],
}


def _oracle_tsv():
    cols = ["anger", "anticipation", "disgust", "fear", "joy",
            "negative", "positive", "sadness", "surprise", "trust"]
    canon = ["positive", "negative", "polarity", "anger", "anticipation",
             "disgust", "fear", "joy", "sadness", "surprise", "trust"]
    lines = []
    for lemma, vals in _ORACLE_LEXICON.items():
        row = {name: vals[i] for i, name in enumerate(canon)}
        lines.append(lemma + "\t" + "\t".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def brute_segment_sizes(n_tokens, n_segments):
    q, r = divmod(n_tokens, n_segments)
    return [q + 1] * r + [q] * (n_segments - r)


def brute_profile(tokens, n_segments=75):
    """Naive per-segment averages over lexicon-matched tokens (no numpy)."""
    sizes = brute_segment_sizes(len(tokens), n_segments)
    profile = []
    start = 0
    for size in sizes:
        total = [0.0] * 11
        matched = 0
        for tok in tokens[start : start + size]:
            if tok in _ORACLE_LEXICON:
                matched += 1
                for d in range(11):
                    total[d] += _ORACLE_LEXICON[tok][d]
        profile.append([v / matched for v in total] if matched else [0.0] * 11)
        start += size
    return profile


def brute_mean(rows):
    return [sum(r[d] for r in rows) / len(rows) for d in range(11)]


def brute_features(profile, final_len, late_len, fsid):
    n = len(profile)
    final_seg = profile[-1]
    main = brute_mean(profile[: n - final_len])
    final = brute_mean(profile[n - final_len :])
    late = brute_mean(profile[n - final_len - late_len : n - final_len])
    diff = lambda a, b: [a[d] - b[d] for d in range(11)]
    if fsid == 1:
        return final_seg
    if fsid == 2:
        return final_seg + diff(final_seg, main)
    if fsid == 3:
        return final
    if fsid == 4:
        return final + diff(final, main)
    if fsid == 5:
        return final + diff(final, main) + diff(final, late)
    return final + diff(final, main) + diff(final, late) + final_seg


def test_featurization_oracle():
    lexicon = parse_lexicon(_oracle_tsv())
    rng = random.Random(123)
    vocab = sorted(_ORACLE_LEXICON) + [f"oov{i}" for i in range(30)]
    partition = SectionPartition(75, 4, 4)
    worst = 0.0
    for i in range(20):
        n_tokens = rng.randint(80, 1000)
        tokens = tuple(rng.choice(vocab) for _ in range(n_tokens))
        novel = Novel(NovelMetadata(f"o{i}", "t", "a", 1850, True), tokens)
        profile = profile_of(novel, lexicon)
        expected = np.array(brute_profile(list(tokens)))
        worst = max(worst, float(np.abs(profile.segment_vectors - expected).max()))
        inputs = RunInputs((profile,), profile.segment_vectors[None], np.array([1]), np.array([1850]))
        for fsid in range(1, 7):
            row = feature_matrix(inputs, partition, fsid)[0]
            brute = np.array(brute_features(brute_profile(list(tokens)), 4, 4, fsid))
            worst = max(worst, float(np.abs(row - brute).max()))
    check("featurization matches brute-force oracle", worst <= 1e-12,
          f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Segmentation properties (1000 random pairs)
# ---------------------------------------------------------------------------


def test_segmentation_properties():
    rng = random.Random(99)
    ok = True
    for _ in range(1000):
        n_segments = rng.randint(1, 120)
        length = rng.randint(n_segments, n_segments + rng.randint(0, 2000))
        lemmas = [f"w{i}" for i in range(length)]
        bounds = segment_bounds(length, n_segments)
        blocks = [lemmas[a:b] for a, b in zip(bounds, bounds[1:])]
        sizes = [len(b) for b in blocks]
        q, r = divmod(length, n_segments)
        ok = ok and max(sizes) - min(sizes) <= 1
        ok = ok and [w for b in blocks for w in b] == lemmas
        ok = ok and sizes == [q + 1] * r + [q] * (n_segments - r)
        if not ok:
            break
    check("segmentation size/coverage/remainder properties on 1000 random pairs", ok)


# ---------------------------------------------------------------------------
# 4. Paper-number disclaimer
# ---------------------------------------------------------------------------


def test_reference_numbers_not_asserted():
    # The published F1 ladder (67/67/68/69/70/73%) and the two reference
    # curves depend on a corpus, lexicon translation, lemmatizer, and SVM
    # settings that are not available, so no test in this suite asserts
    # them; the planted-corpus criteria below stand in.
    check("reference-corpus F1 values are documented as out of reach, not asserted", True)


# ---------------------------------------------------------------------------
# 5. Planted-ending classification
# ---------------------------------------------------------------------------


def test_planted_ending_classification(planted_inputs):
    X = feature_matrix(planted_inputs, SectionPartition(75, 4, 4), 3)
    pred = cross_validate(X[None], planted_inputs.labels, folds=10, seed=42)
    (f1,), _ = f1_accuracy(pred, planted_inputs.labels)
    check("planted-ending pooled F1 >= 0.90 (set 3, final_len 4)",
          f1 >= 0.90, f"F1 = {f1:.3f}")


# ---------------------------------------------------------------------------
# 6. Sweep peak recovery (full final_len 1..37 grid)
# ---------------------------------------------------------------------------


def test_sweep_peak_recovery(planted_inputs):
    curve = run_partition_sweep(planted_inputs, feature_set_id=3)
    best = curve.argmax_point
    check("sweep argmax final_len in [2, 6] (planted boundary 4)",
          2 <= best.final_len <= 6,
          f"argmax final_len = {best.final_len}, F1 = {best.f1:.3f}")


# ---------------------------------------------------------------------------
# 7. Null-label sanity
# ---------------------------------------------------------------------------


def test_null_label_sanity(planted_inputs):
    X = feature_matrix(planted_inputs, SectionPartition(75, 4, 4), 3)
    rng = np.random.default_rng(42)
    y_perm = planted_inputs.labels[rng.permutation(len(planted_inputs.labels))]
    (f1,), _ = f1_accuracy(cross_validate(X[None], y_perm, folds=10, seed=42), y_perm)
    check("permuted-label pooled F1 in [0.35, 0.65]",
          0.35 <= f1 <= 0.65, f"F1 = {f1:.3f}")


# ---------------------------------------------------------------------------
# 8. Period grouping rule (exact)
# ---------------------------------------------------------------------------


def test_period_grouping_rule():
    years = (
        [1775 + i % 56 for i in range(65)]      # all <= 1830
        + [1831 + i % 18 for i in range(31)]    # 1831..1848
        + [1849 + i % 22 for i in range(29)]    # 1849..1870
        + [1871 + i % 60 for i in range(87)]    # >= 1871
    )
    sizes = [len(g) for g in group_indices(np.array(years))]
    check("period group sizes exactly (65, 31, 29, 87)",
          sizes == [65, 31, 29, 87], f"got {sizes}")


# ---------------------------------------------------------------------------
# 9. Determinism end-to-end (two `run sweep` invocations, byte-identical)
# ---------------------------------------------------------------------------


def test_run_sweep_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert main([
        "synth", "--seed", "5", "--n-novels", "20", "--tokens-per-novel", "600",
        "--ending-len", "4", "--out", str(corpus_dir),
    ]) == 0
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "run", "sweep",
            "--corpus", str(corpus_dir),
            "--metadata", str(corpus_dir / "metadata.tsv"),
            "--lexicon", str(corpus_dir / "lexicon.tsv"),
            "--folds", "5", "--epochs", "50",
            "--out", str(out),
        ]) == 0
        outputs.append({
            f: (out / f).read_bytes() for f in ("sweep.csv", "sweep.meta.txt", "sweep.svg")
        })
    check("two `run sweep` invocations are byte-identical (CSV, meta, SVG)",
          outputs[0] == outputs[1])


# ---------------------------------------------------------------------------
# 10. No test leakage through standardization
# ---------------------------------------------------------------------------


def test_standardization_no_leakage(planted_inputs):
    X = feature_matrix(planted_inputs, SectionPartition(75, 4, 4), 3)
    y = planted_inputs.labels
    folds = 10
    assignment = stratified_folds(y, folds, seed=42)
    rng = np.random.default_rng(0)
    ok = True
    for k in range(folds):
        train = assignment != k
        before = standardize_fit(X[train])
        X_pert = X.copy()
        X_pert[~train] += rng.normal(scale=1e9, size=X_pert[~train].shape)
        after = standardize_fit(X_pert[train])
        ok = ok and all(np.array_equal(a, b) for a, b in zip(before, after))
    check("per-fold standardization params ignore held-out rows (exact)", ok)


# ---------------------------------------------------------------------------
# 11. One batched sweep equals one cross-validation per point (exact)
# ---------------------------------------------------------------------------


def test_batched_sweep_matches_per_point_cv(planted_inputs):
    config = ClassifierConfig(folds=10, seed=42, C=1.0, epochs=20)
    curve = run_partition_sweep(planted_inputs, feature_set_id=3, config=config)
    X = np.stack([
        feature_matrix(planted_inputs, SectionPartition(75, p.final_len, 0), 3)
        for p in curve.points
    ])
    batched = cross_validate(X, planted_inputs.labels, folds=10, seed=42, epochs=20)
    alone = np.concatenate([
        cross_validate(m[None], planted_inputs.labels, folds=10, seed=42, epochs=20) for m in X
    ])
    f1, _ = f1_accuracy(alone, planted_inputs.labels)
    check("batched sweep out-of-fold labels and F1s equal per-point CV (exact)",
          batched.tobytes() == alone.tobytes()
          and [p.f1 for p in curve.points] == f1.tolist(),
          f"{len(alone)} points")
