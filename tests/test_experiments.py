import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from plotarc import svm
from plotarc.corpus import (
    Corpus,
    Novel,
    NovelMetadata,
    generate_synthetic_corpus,
)
from plotarc.experiments import (
    DEFAULT_PERIOD_BOUNDARIES,
    ClassifierConfig,
    RunInputs,
    SweepCurve,
    SweepPoint,
    corpus_checksum,
    feature_matrix,
    group_indices,
    ladder_csv,
    lexicon_checksum,
    meta_text,
    period_labels,
    periods_csv,
    prepare_inputs,
    run_baselines,
    run_feature_ladder,
    run_partition_sweep,
    run_period_analysis,
    sweep_csv,
)
from plotarc.features import FeaturizationError, SectionPartition
from plotarc.lexicon import lexicon_to_text
from plotarc.svm import cross_validate, f1_accuracy

FAST = ClassifierConfig(folds=10, seed=42, C=1.0, epochs=100)


@pytest.fixture(scope="module")
def planted(toy_lexicon):
    corpus = generate_synthetic_corpus(7, 40, 1500, 4, toy_lexicon)
    return corpus, prepare_inputs(corpus, toy_lexicon)


class TestPrepareInputs:
    def test_profiles_are_read_only_rows_of_stacked_vectors(self, planted):
        corpus, inputs = planted
        assert inputs.vectors.shape == (40, 75, 11)
        assert not inputs.vectors.flags.writeable
        for row, profile in zip(inputs.vectors, inputs.profiles):
            assert np.shares_memory(profile.segment_vectors, inputs.vectors)
            np.testing.assert_array_equal(profile.segment_vectors, row)
            assert not profile.segment_vectors.flags.writeable

    @pytest.mark.parametrize("n_segments", [0, -3])
    def test_fewer_than_one_segment_rejected(self, planted, toy_lexicon, n_segments):
        with pytest.raises(ValueError, match="at least 1"):
            prepare_inputs(planted[0], toy_lexicon, n_segments)

    @pytest.mark.parametrize("n_segments", [101, 10**18])
    def test_segments_beyond_the_shortest_novel_rejected_before_allocating(
        self, planted, toy_lexicon, n_segments
    ):
        novels = list(planted[0].novels)
        novels[3] = Novel(novels[3].metadata, novels[3].lemmas[:100])
        tracemalloc.start()
        try:
            message = f"novel {novels[3].metadata.id!r}: cannot split 100 lemmas"
            with pytest.raises(FeaturizationError, match=message):
                prepare_inputs(Corpus(tuple(novels)), toy_lexicon, n_segments)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestFeatureLadder:
    def test_planted_corpus_rows(self, planted):
        _, inputs = planted
        report = run_feature_ladder(inputs, SectionPartition(75, 4, 4), FAST)
        assert [row[0] for row in report.rows] == [1, 2, 3, 4, 5, 6]
        set3_f1 = report.rows[2][1]
        assert set3_f1 >= 0.65  # way above the 0.5 random baseline

    def test_shared_fold_assignment(self, planted, monkeypatch):
        # The ladder's rows are comparable because the folds depend on the
        # labels, fold count and seed only, not on the feature width.
        _, inputs = planted
        partition = SectionPartition(75, 4, 4)
        narrow, wide = (feature_matrix(inputs, partition, fsid)[None] for fsid in (1, 6))
        assert (narrow.shape[2], wide.shape[2]) == (11, 44)
        assignments = []
        stratified_folds = svm.stratified_folds

        def recording(*args):
            assignments.append(stratified_folds(*args))
            return assignments[-1]

        monkeypatch.setattr(svm, "stratified_folds", recording)
        for X in (narrow, wide):
            cross_validate(X, inputs.labels, **dataclasses.asdict(FAST))
        a, b = assignments
        assert len(a) == 40
        assert a.tobytes() == b.tobytes()

    def test_constant_profiles_score_near_chance(self, toy_lexicon):
        # Identical token streams make every feature degenerate; pooled
        # predictions then collapse to the per-fold bias sign.
        lemmas = tuple(["wunderbar", "tod", "zufall", "oov"] * 200)
        novels = tuple(
            Novel(NovelMetadata(f"c{i}", "t", "a", 1900, i % 2 == 0), lemmas)
            for i in range(40)
        )
        corpus = Corpus(novels)
        inputs = prepare_inputs(corpus, toy_lexicon)
        X = feature_matrix(inputs, SectionPartition(75, 4, 4), 3)
        f1, _ = f1_accuracy(cross_validate(X[None], inputs.labels, folds=10, seed=42), inputs.labels)
        assert 0.35 <= f1[0] <= 0.65

    def test_config_recorded(self, planted):
        _, inputs = planted
        report = run_feature_ladder(inputs, SectionPartition(75, 4, 4), FAST)
        assert report.config["final_len"] == 4
        assert report.config["seed"] == 42


class TestPartitionSweep:
    def test_single_fraction_final_len_4(self, planted):
        _, inputs = planted
        curve = run_partition_sweep(inputs, [4], 3, FAST)
        assert len(curve.points) == 1
        assert curve.points[0].final_len == 4

    def test_empty_fractions(self, planted):
        _, inputs = planted
        curve = run_partition_sweep(inputs, [], 3, FAST)
        assert curve.points == ()
        assert curve.argmax_point is None

    def test_fraction_too_large_rejected(self, planted):
        _, inputs = planted
        with pytest.raises(ValueError):
            run_partition_sweep(inputs, [0], 3, FAST)

    def test_default_fraction_grid(self, planted):
        _, inputs = planted
        curve = run_partition_sweep(inputs, config=ClassifierConfig(epochs=1))
        final_lens = [p.final_len for p in curve.points]
        assert final_lens == list(range(37, 0, -1))
        assert curve.points[0].main_fraction == pytest.approx(38 / 75)

    def test_argmax_tiebreak_prefers_larger_fraction(self):
        curve = SweepCurve(
            points=(
                SweepPoint(0.9, 8, 0.8),
                SweepPoint(0.95, 4, 0.8),
                SweepPoint(0.8, 15, 0.7),
            ),
        )
        assert curve.argmax_point.main_fraction == 0.95


class TestPeriodGrouping:
    def test_paper_sized_groups(self):
        # 65 novels <= 1830, 31 in 1831-1848, 29 in 1849-1870, 87 >= 1871
        years = (
            [1775 + i % 56 for i in range(65)]
            + [1831 + i % 18 for i in range(31)]
            + [1849 + i % 22 for i in range(29)]
            + [1871 + i % 60 for i in range(87)]
        )
        novels = tuple(
            Novel(NovelMetadata(f"n{i}", "t", "a", y, i % 2 == 0), ("x",) * 80)
            for i, y in enumerate(years)
        )
        corpus = Corpus(novels)
        groups = group_indices(corpus, (1830, 1848, 1870))
        assert [len(g) for g in groups] == [65, 31, 29, 87]

    def test_boundary_year_goes_to_earlier_group(self):
        novels = (Novel(NovelMetadata("n", "t", "a", 1830, True), ("x",) * 80),)
        groups = group_indices(Corpus(novels), (1830, 1848, 1870))
        assert [len(g) for g in groups] == [1, 0, 0, 0]

    def test_partition_is_exhaustive_and_disjoint(self):
        novels = tuple(
            Novel(NovelMetadata(f"n{i}", "t", "a", 1700 + i * 7, i % 2 == 0), ("x",) * 80)
            for i in range(50)
        )
        groups = group_indices(Corpus(novels), (1830, 1848, 1870))
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(50))

    def test_labels(self):
        labels = period_labels((1830, 1848, 1870))
        assert labels == ["<=1830", "1831-1848", "1849-1870", ">=1871"]


class TestPeriodAnalysis:
    def test_all_same_year_single_group(self, toy_lexicon):
        corpus = generate_synthetic_corpus(9, 40, 1500, 4, toy_lexicon)
        novels = tuple(
            Novel(dataclasses.replace(n.metadata, year=1900), n.lemmas) for n in corpus.novels
        )
        corpus = Corpus(novels)
        inputs = prepare_inputs(corpus, toy_lexicon)
        report = run_period_analysis(
            corpus, inputs, final_lens=[4], config=FAST
        )
        skipped = [g.curve is None for g in report.groups]
        assert skipped == [True, True, True, False]
        assert report.groups[3].novel_count == 40

    def test_two_planted_subcorpora_recover_boundaries(self, toy_lexicon):
        early = generate_synthetic_corpus(1, 50, 1500, 4, toy_lexicon)
        late = generate_synthetic_corpus(2, 50, 1500, 8, toy_lexicon)

        def retag(corpus, year, prefix):
            return [
                Novel(
                    dataclasses.replace(n.metadata, id=prefix + n.metadata.id, year=year),
                    n.lemmas,
                )
                for n in corpus.novels
            ]

        corpus = Corpus(tuple(retag(early, 1820, "a-") + retag(late, 1900, "b-")))
        inputs = prepare_inputs(corpus, toy_lexicon)
        report = run_period_analysis(
            corpus, inputs, feature_set_id=3, final_lens=range(1, 16), config=FAST
        )
        populated = [g for g in report.groups if g.curve is not None]
        assert [g.novel_count for g in populated] == [50, 50]
        early_argmax = populated[0].curve.argmax_point.final_len
        late_argmax = populated[1].curve.argmax_point.final_len
        assert abs(early_argmax - 4) <= 2
        assert abs(late_argmax - 8) <= 2

    def test_group_curves_equal_sweeps_over_each_groups_own_inputs(self, toy_lexicon):
        # Groups are cut from the corpus-wide feature stack; each curve must
        # equal, float for float, a sweep over inputs holding only its rows.
        corpus = generate_synthetic_corpus(5, 120, 600, 4, toy_lexicon)
        inputs = prepare_inputs(corpus, toy_lexicon)
        config = ClassifierConfig(epochs=20)
        report = run_period_analysis(corpus, inputs, final_lens=[9, 4, 1], config=config)
        assert [g.novel_count for g in report.groups] == [41, 18, 22, 39]
        assert [g.curve is None for g in report.groups] == [False, True, False, False]
        for group, idx in zip(report.groups, group_indices(corpus, DEFAULT_PERIOD_BOUNDARIES)):
            if group.curve is not None:
                own = RunInputs(
                    tuple(inputs.profiles[i] for i in idx), inputs.vectors[idx], inputs.labels[idx]
                )
                assert group.curve == run_partition_sweep(own, [9, 4, 1], 3, config)


class TestBaselines:
    def make_corpus(self, n_happy, n_unhappy):
        novels = []
        for i in range(n_happy + n_unhappy):
            novels.append(
                Novel(NovelMetadata(f"n{i}", "t", "a", 1900, i < n_happy), ("x",) * 80)
            )
        return Corpus(tuple(novels))

    def test_balanced(self):
        assert run_baselines(self.make_corpus(2, 2)) == (0.5, 0.5)

    def test_skewed(self):
        assert run_baselines(self.make_corpus(3, 1)) == (0.5, 0.75)

    def test_single_class(self):
        assert run_baselines(self.make_corpus(4, 0)) == (0.5, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_baselines(Corpus(()))


class TestReports:
    def test_ladder_csv_shape(self, planted):
        _, inputs = planted
        report = run_feature_ladder(inputs, SectionPartition(75, 4, 4), FAST)
        lines = ladder_csv(report).strip().splitlines()
        assert lines[0] == "feature_set,f1,accuracy"
        assert len(lines) == 7

    def test_sweep_csv_shape(self, planted):
        _, inputs = planted
        curve = run_partition_sweep(inputs, [4], 3, FAST)
        lines = sweep_csv(curve).strip().splitlines()
        assert lines[0] == "main_fraction,final_len,f1"
        assert lines[1].split(",")[1] == "4"

    def test_periods_csv_marks_skips(self, toy_lexicon, planted):
        corpus, inputs = planted
        report = run_period_analysis(corpus, inputs, final_lens=[4], config=FAST)
        text = periods_csv(report)
        assert "skipped" in text or text.count("\n") > 1

    def test_meta_embeds_checksums(self, toy_lexicon, planted):
        corpus, _ = planted
        text = meta_text({"seed": 42}, corpus, toy_lexicon)
        assert "corpus_checksum" in text and "lexicon_checksum" in text
        assert "seed = 42" in text

    def test_checksums_stable_and_sensitive(self, toy_lexicon, planted):
        corpus, _ = planted
        assert corpus_checksum(corpus) == corpus_checksum(corpus)
        assert lexicon_checksum(toy_lexicon) == lexicon_checksum(toy_lexicon)
        other = Corpus(corpus.novels[:-1])
        assert corpus_checksum(other) != corpus_checksum(corpus)

    def test_checksums_are_hashlib_sha256_of_the_same_bytes(self, toy_lexicon, planted):
        corpus, _ = planted
        lexicon_bytes = lexicon_to_text(toy_lexicon).encode("utf-8")
        assert lexicon_checksum(toy_lexicon) == hashlib.sha256(lexicon_bytes).hexdigest()
        corpus_text = "".join(
            f"{m.id}\t{m.title}\t{m.author}\t{m.year}\t{int(m.label)}\n" + " ".join(novel.lemmas) + "\n"
            for novel in corpus.novels
            for m in [novel.metadata]
        )
        assert corpus_checksum(corpus) == hashlib.sha256(corpus_text.encode("utf-8")).hexdigest()
