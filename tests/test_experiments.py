import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import interned
from plotarc import experiments, svm
from plotarc.corpus import (
    Corpus,
    Lemmas,
    Novel,
    NovelMetadata,
    generate_synthetic_corpus,
    load_corpus,
    load_lemma_map,
    write_corpus,
)
from plotarc.experiments import (
    PERIOD_CUTS,
    PERIOD_LABELS,
    ClassifierConfig,
    RunInputs,
    SweepPoint,
    best_points,
    corpus_checksum,
    feature_matrix,
    group_indices,
    ladder_csv,
    lexicon_checksum,
    meta_text,
    periods_csv,
    prepare_inputs,
    run_baselines,
    run_feature_ladder,
    run_partition_sweep,
    run_period_analysis,
    sweep_csv,
)
from plotarc.features import FeaturizationError
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
        lemmas = novels[3].lemmas
        novels[3] = Novel(novels[3].metadata, Lemmas(lemmas.vocabulary, lemmas.ids[:100]))
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
        rows = run_feature_ladder(inputs, 4, FAST)
        assert [row[0] for row in rows] == [1, 2, 3, 4, 5, 6]
        set3_f1 = rows[2][1]
        assert set3_f1 >= 0.65  # way above the 0.5 random baseline

    @pytest.mark.parametrize("final_len", [4, 12])
    def test_one_padded_call_matches_a_call_per_set(self, planted, final_len, monkeypatch):
        # The six sets train as one zero-padded (6, novels, 44) stack: one
        # cross_validate call whose margins are the per-set calls' within 1e-12.
        _, inputs = planted
        shapes, calls = [], []

        def recording(X, y, **kwargs):
            shapes.append(X.shape)
            calls.append(cross_validate(X, y, **kwargs))
            return calls[-1]

        monkeypatch.setattr(experiments, "cross_validate", recording)
        rows = run_feature_ladder(inputs, final_len, FAST)
        monkeypatch.undo()
        assert len(calls) == 1
        assert shapes == [(6, 40, 44)]
        (margins,) = calls
        reference = np.stack([
            cross_validate(feature_matrix(inputs.vectors, final_len, fsid)[None], inputs.labels,
                           **dataclasses.asdict(FAST))[0]
            for fsid in range(1, 7)
        ])
        np.testing.assert_allclose(margins, reference, rtol=0, atol=1e-12)
        assert margins[5].tobytes() == reference[5].tobytes()  # set 6 fills the stack: no padding
        f1, accuracy = f1_accuracy(reference, inputs.labels)
        assert rows == tuple(zip(range(1, 7), f1.tolist(), accuracy.tolist()))

    def test_shared_fold_assignment(self, planted, monkeypatch):
        # The folds depend on the labels, fold count and seed only, not on the
        # feature width: the ladder's one call gives its rows one assignment by
        # construction, and a per-set call of any width gets that same one.
        _, inputs = planted
        narrow, wide = (feature_matrix(inputs.vectors, 4, fsid)[None] for fsid in (1, 6))
        assert (narrow.shape[2], wide.shape[2]) == (11, 44)
        assignments = []
        stratified_folds = svm._stratified_folds

        def recording(*args):
            assignments.append(stratified_folds(*args))
            return assignments[-1]

        monkeypatch.setattr(svm, "_stratified_folds", recording)
        for X in (narrow, wide):
            cross_validate(X, inputs.labels, **dataclasses.asdict(FAST))
        a, b = assignments
        assert len(a) == 40
        assert a.tobytes() == b.tobytes()

    def test_constant_profiles_score_near_chance(self, toy_lexicon):
        # Identical token streams make every feature degenerate; pooled
        # margins then collapse to the sign of each fold's bias.
        lemmas = tuple(["wunderbar", "tod", "zufall", "oov"] * 200)
        novels = tuple(
            Novel(NovelMetadata(f"c{i}", "t", "a", 1900, i % 2 == 0), lemmas)
            for i in range(40)
        )
        inputs = prepare_inputs(interned(novels), toy_lexicon)
        X = feature_matrix(inputs.vectors, 4, 3)
        f1, _ = f1_accuracy(cross_validate(X[None], inputs.labels, folds=10, seed=42), inputs.labels)
        assert 0.35 <= f1[0] <= 0.65


class TestPartitionSweep:
    def test_single_fraction_final_len_4(self, planted):
        _, inputs = planted
        points = run_partition_sweep(inputs, [4], 3, FAST)
        assert len(points) == 1
        assert points[0].final_len == 4

    def test_empty_fractions(self, planted):
        _, inputs = planted
        message = "^a partition sweep needs a final length, got none for 75 segments$"
        with pytest.raises(FeaturizationError, match=message):
            run_partition_sweep(inputs, [], 3, FAST)

    def test_fraction_too_large_rejected(self, planted):
        _, inputs = planted
        with pytest.raises(ValueError):
            run_partition_sweep(inputs, [0], 3, FAST)

    def test_default_fraction_grid(self, planted):
        _, inputs = planted
        points = run_partition_sweep(inputs, config=ClassifierConfig(epochs=1))
        final_lens = [p.final_len for p in points]
        assert final_lens == list(range(37, 0, -1))
        assert points[0].main_fraction == pytest.approx(38 / 75)

    def test_argmax_tiebreak_prefers_larger_fraction(self):
        points = (
            SweepPoint(0.6, 30, 0.8),
            SweepPoint(0.9, 8, 0.8),
            SweepPoint(0.95, 4, 0.8),
            SweepPoint(0.8, 15, 0.7),
        )
        best = best_points(points)
        assert best[0].main_fraction == 0.95
        # The whole tied set: the best point, then the tied lengths in ascending order.
        assert best == (points[2], points[1], points[0])
        # A point with lower F1 is never in it, even where it has the largest main fraction.
        assert best_points((points[3], SweepPoint(0.99, 1, 0.75))) == (SweepPoint(0.99, 1, 0.75),)


class TestPeriodGrouping:
    def test_paper_sized_groups(self):
        # 65 novels <= 1830, 31 in 1831-1848, 29 in 1849-1870, 87 >= 1871
        years = (
            [1775 + i % 56 for i in range(65)]
            + [1831 + i % 18 for i in range(31)]
            + [1849 + i % 22 for i in range(29)]
            + [1871 + i % 60 for i in range(87)]
        )
        groups = group_indices(np.array(years))
        assert [len(g) for g in groups] == [65, 31, 29, 87]

    def test_boundary_year_goes_to_earlier_group(self):
        groups = group_indices(np.array([1830]))
        assert [len(g) for g in groups] == [1, 0, 0, 0]

    def test_partition_is_exhaustive_and_disjoint(self):
        groups = group_indices(np.array([1700 + i * 7 for i in range(50)]))
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(50))

    def test_labels(self):
        assert PERIOD_LABELS == ("<=1830", "1831-1848", "1849-1870", ">=1871")

    def test_each_cut_year_ends_its_group_and_labels_name_the_cuts(self):
        for g, cut in enumerate(PERIOD_CUTS):
            groups = group_indices(np.array([cut, cut + 1]))
            assert groups[g] == [0] and groups[g + 1] == [1]
        cuts = PERIOD_CUTS
        middle = [f"{lo + 1}-{hi}" for lo, hi in zip(cuts, cuts[1:])]
        assert list(PERIOD_LABELS) == [f"<={cuts[0]}", *middle, f">={cuts[-1] + 1}"]

    def test_year_beyond_int64_lands_in_the_last_group(self):
        years = np.array([99999999999999999999])
        assert years.dtype == object
        assert group_indices(years) == [[], [], [], [0]]

    def test_prepare_inputs_years_follow_corpus_order_read_only(self, planted):
        corpus, inputs = planted
        np.testing.assert_array_equal(inputs.years, [n.metadata.year for n in corpus.novels])
        assert not inputs.years.flags.writeable


class TestPeriodAnalysis:
    def test_all_same_year_single_group(self, toy_lexicon):
        corpus = generate_synthetic_corpus(9, 40, 1500, 4, toy_lexicon)
        novels = tuple(
            Novel(dataclasses.replace(n.metadata, year=1900), n.lemmas) for n in corpus.novels
        )
        corpus = Corpus(novels)
        inputs = prepare_inputs(corpus, toy_lexicon)
        groups = run_period_analysis(inputs, final_lens=[4], config=FAST)
        skipped = [g.points is None for g in groups]
        assert skipped == [True, True, True, False]
        assert groups[3].novel_count == 40

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

        inputs = prepare_inputs(interned(retag(early, 1820, "a-") + retag(late, 1900, "b-")), toy_lexicon)
        groups = run_period_analysis(inputs, feature_set_id=3, final_lens=range(1, 16), config=FAST)
        populated = [g for g in groups if g.points is not None]
        assert [g.novel_count for g in populated] == [50, 50]
        early_argmax = best_points(populated[0].points)[0].final_len
        late_argmax = best_points(populated[1].points)[0].final_len
        assert abs(early_argmax - 4) <= 2
        assert abs(late_argmax - 8) <= 2

    def test_group_curves_equal_sweeps_over_each_groups_own_inputs(self, toy_lexicon):
        # Each group's stack is made from its rows of the corpus-wide vectors;
        # each curve must equal, float for float, a sweep over inputs holding
        # only its rows.
        corpus = generate_synthetic_corpus(5, 120, 600, 4, toy_lexicon)
        inputs = prepare_inputs(corpus, toy_lexicon)
        config = ClassifierConfig(epochs=20)
        groups = run_period_analysis(inputs, final_lens=[9, 4, 1], config=config)
        assert [g.novel_count for g in groups] == [41, 18, 22, 39]
        assert [g.points is None for g in groups] == [False, True, False, False]
        for group, idx in zip(groups, group_indices(inputs.years)):
            if group.points is not None:
                own = RunInputs(
                    tuple(inputs.profiles[i] for i in idx), inputs.vectors[idx], inputs.labels[idx],
                    inputs.years[idx],
                )
                assert group.points == run_partition_sweep(own, [9, 4, 1], 3, config)


    def test_feature_matrices_are_made_only_for_swept_groups(self, toy_lexicon, monkeypatch):
        # Groups of 41, 18, 22 and 39 novels; the 18 are skipped. Each swept
        # group's rows are cut once, and every point's matrix is made on them.
        inputs = prepare_inputs(generate_synthetic_corpus(5, 120, 600, 4, toy_lexicon), toy_lexicon)
        made = []
        original = experiments.feature_matrix

        def recording(vectors, final_len, feature_set_id):
            made.append(vectors)
            return original(vectors, final_len, feature_set_id)

        monkeypatch.setattr(experiments, "feature_matrix", recording)
        groups = run_period_analysis(inputs, final_lens=[9, 4, 1], config=ClassifierConfig(epochs=2))
        assert [g.points is None for g in groups] == [False, True, False, False]
        swept = [idx for idx in group_indices(inputs.years) if len(idx) != 18]
        assert [len(vectors) for vectors in made] == [41] * 3 + [22] * 3 + [39] * 3
        for g, idx in enumerate(swept):
            vectors = made[3 * g]
            assert made[3 * g + 1] is vectors and made[3 * g + 2] is vectors
            assert vectors.tobytes() == inputs.vectors[idx].tobytes()


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
        lines = ladder_csv(run_feature_ladder(inputs, 4, FAST)).strip().splitlines()
        assert lines[0] == "feature_set,f1,accuracy"
        assert len(lines) == 7

    def test_sweep_csv_shape(self, planted):
        _, inputs = planted
        points = run_partition_sweep(inputs, [4], 3, FAST)
        lines = sweep_csv(points).strip().splitlines()
        assert lines[0] == "main_fraction,final_len,f1"
        assert lines[1].split(",")[1] == "4"

    def test_periods_csv_marks_skips(self, toy_lexicon, planted):
        _, inputs = planted
        groups = run_period_analysis(inputs, final_lens=[4], config=FAST)
        text = periods_csv(groups)
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


def reference_corpus_checksum(corpus):
    """The documented corpus encoding, built from each novel's lemma strings."""

    def prefixed(text):
        data = text.encode("utf-8")
        return struct.pack("<I", len(data)) + data

    texts = [tuple(novel.lemmas) for novel in corpus.novels]
    used = sorted(set().union(*texts))
    rank = {lemma: r for r, lemma in enumerate(used)}
    parts = [struct.pack("<I", len(used)), *map(prefixed, used)]
    for novel, text in zip(corpus.novels, texts):
        m = novel.metadata
        parts += map(prefixed, (m.id, m.title, m.author, str(m.year), "1" if m.label else "0"))
        parts.append(struct.pack(f"<{1 + len(text)}I", len(text), *(rank[lemma] for lemma in text)))
    return hashlib.blake2b(b"".join(parts), digest_size=32).hexdigest()


def load_texts(tmp_path, texts, map_lines=()):
    """Novels with these texts written to disk and loaded, with a lemma map of these lines."""
    novels = tuple(
        Novel(NovelMetadata(f"n{i}", f"Titel {i}", "Autorin", 1820 + 20 * i, i % 2 == 0), tuple(text.split()))
        for i, text in enumerate(texts)
    )
    write_corpus(Corpus(novels), tmp_path / "corpus")
    lemma_map = tmp_path / "lemmas.tsv"
    lemma_map.write_text("".join(f"{line}\n" for line in map_lines), encoding="utf-8")
    return load_corpus(tmp_path / "corpus", tmp_path / "corpus" / "metadata.tsv", load_lemma_map(lemma_map))


TEXTS = (
    "Die Freude war gross , und die Häuser lachten",
    "Das Haus fiel , der Tod kam , und alles war elend",
    "Liebe und Hoffnung bis zum Ende",
)
MAP_LINES = ("Häuser\thaus", "Haus\thaus", "war\tsein", "lachten\tlachen", "fiel\tfallen")


class TestChecksums:
    def test_lexicon_checksum_is_blake2b_of_its_text(self, toy_lexicon):
        lexicon_bytes = lexicon_to_text(toy_lexicon).encode("utf-8")
        assert lexicon_checksum(toy_lexicon) == hashlib.blake2b(lexicon_bytes, digest_size=32).hexdigest()

    def test_corpus_checksum_matches_reference(self, planted, tmp_path):
        corpus, _ = planted
        assert corpus_checksum(corpus) == reference_corpus_checksum(corpus)
        loaded = load_texts(tmp_path, TEXTS, MAP_LINES)
        assert corpus_checksum(loaded) == reference_corpus_checksum(loaded)
        assert corpus_checksum(Corpus(())) == reference_corpus_checksum(Corpus(()))

    def test_a_lemma_with_a_space_is_not_two_lemmas(self, tmp_path):
        # "x" mapped to the lemma "a b" against the text "a b": joined by
        # spaces, both novels would read as the same bytes.
        one = load_texts(tmp_path / "one", ["x"], ["x\ta b"])
        two = load_texts(tmp_path / "two", ["a b"])
        assert tuple(one.novels[0].lemmas) == ("a b",) and tuple(two.novels[0].lemmas) == ("a", "b")
        assert corpus_checksum(one) != corpus_checksum(two)

    def test_unused_map_lemmas_and_id_width_do_not_count(self, tmp_path):
        plain = load_texts(tmp_path / "plain", TEXTS, MAP_LINES)
        few = load_texts(tmp_path / "few", TEXTS, [*MAP_LINES, "Zufall\tzufall", "aaa\taaa"])
        # 300 unused lemmas head the vocabulary and widen its ids to 16 bits.
        wide = load_texts(tmp_path / "wide", TEXTS, [*MAP_LINES, *(f"u{k}\tungenutzt{k}" for k in range(300))])
        assert [n.lemmas.ids.dtype for n in plain.novels + few.novels] == [np.uint8] * 6
        assert [n.lemmas.ids.dtype for n in wide.novels] == [np.uint16] * 3
        assert len(wide.novels[0].lemmas.vocabulary) > len(few.novels[0].lemmas.vocabulary) > len(
            plain.novels[0].lemmas.vocabulary)
        texts = [[(n.metadata, tuple(n.lemmas)) for n in corpus.novels] for corpus in (plain, few, wide)]
        assert texts[0] == texts[1] == texts[2]
        assert corpus_checksum(plain) == corpus_checksum(few) == corpus_checksum(wide)

    def test_token_order_and_each_metadata_cell_count(self, tmp_path):
        corpus = load_texts(tmp_path, TEXTS, MAP_LINES)
        checksum = corpus_checksum(corpus)
        first, *rest = corpus.novels
        ids = first.lemmas.ids.copy()
        ids[[1, 2]] = ids[[2, 1]]
        assert ids[1] != ids[2]
        swapped = Corpus((Novel(first.metadata, Lemmas(first.lemmas.vocabulary, ids)), *rest))
        assert corpus_checksum(swapped) != checksum
        changes = {"id": "n9", "title": "Titel 9", "author": "Autor", "year": 1821, "label": False}
        for cell, value in changes.items():
            meta = dataclasses.replace(first.metadata, **{cell: value})
            assert corpus_checksum(Corpus((Novel(meta, first.lemmas), *rest))) != checksum, cell
