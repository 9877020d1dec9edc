import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import profile_of
from plotarc.corpus import CorpusError, Novel, NovelMetadata, segment_bounds
from plotarc.experiments import FEATURE_SET_DIMS, RunInputs, feature_matrix
from plotarc.features import (
    CACHE_HEADER,
    N_DIMS,
    FeaturizationError,
    SectionPartition,
    SegmentProfile,
    write_profile_cache,
)
from plotarc.lexicon import DIMENSIONS


def make_inputs(vectors):
    """Run inputs holding one novel with the given (n_segments, 11) profile."""
    arr = np.array(vectors, dtype=float)
    return RunInputs((), arr[None], np.array([1]), np.array([1900]))


def segment(lemmas, n_segments):
    bounds = segment_bounds(len(lemmas), n_segments)
    return [lemmas[a:b] for a, b in zip(bounds, bounds[1:])]


def one_segment(lemmas, lexicon):
    """Scores (by dimension name) and matched count of a single-segment novel."""
    novel = Novel(NovelMetadata("s", "t", "a", 1850, True), tuple(lemmas))
    profile = profile_of(novel, lexicon, n_segments=1)
    return dict(zip(DIMENSIONS, profile.segment_vectors[0])), int(profile.matched_counts[0])


class TestSegment:
    def test_exact_division(self):
        blocks = segment([f"w{i}" for i in range(750)], 75)
        assert len(blocks) == 75
        assert all(len(b) == 10 for b in blocks)

    def test_remainder_to_earliest(self):
        lemmas = [f"w{i}" for i in range(77)]
        blocks = segment(lemmas, 75)
        sizes = [len(b) for b in blocks]
        assert sizes[:2] == [2, 2] and set(sizes[2:]) == {1}
        assert [w for b in blocks for w in b] == lemmas

    @pytest.mark.parametrize("n_segments", [0, -3])
    def test_fewer_than_one_segment_rejected(self, n_segments):
        with pytest.raises(CorpusError, match="at least 1"):
            segment_bounds(100, n_segments)

    def test_too_short_raises(self, toy_lexicon):
        novel = Novel(NovelMetadata("short", "t", "a", 1850, True), ("a",) * 74)
        with pytest.raises(FeaturizationError):
            profile_of(novel, toy_lexicon, 75)

    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(n, 600))
        )
    )
    @settings(max_examples=200)
    def test_partition_properties(self, pair):
        n_segments, length = pair
        lemmas = [f"w{i}" for i in range(length)]
        blocks = segment(lemmas, n_segments)
        sizes = [len(b) for b in blocks]
        assert len(blocks) == n_segments
        assert max(sizes) - min(sizes) <= 1
        assert [w for b in blocks for w in b] == lemmas
        q, r = divmod(length, n_segments)
        assert sizes == [q + 1] * r + [q] * (n_segments - r)


class TestSegmentSentiment:
    def test_single_surprise_token(self, table1_lexicon):
        vec, matched = one_segment(["Zufall"], table1_lexicon)
        assert matched == 1
        assert vec["surprise"] == 1.0
        assert sum(vec.values()) == 1.0

    def test_hand_averaged_pair(self, table1_lexicon):
        vec, matched = one_segment(["verabscheuen", "bewundernswert"], table1_lexicon)
        assert matched == 2
        assert vec["positive"] == 0.5 and vec["negative"] == 0.5 and vec["polarity"] == 0.0
        assert vec["anger"] == 0.5 and vec["disgust"] == 0.5 and vec["fear"] == 0.5
        assert vec["joy"] == 0.5 and vec["trust"] == 0.5
        assert vec["sadness"] == 0.0 and vec["surprise"] == 0.0 and vec["anticipation"] == 0.0

    def test_all_oov_gives_zero_vector(self, table1_lexicon):
        vec, matched = one_segment(["foo", "bar"], table1_lexicon)
        assert matched == 0
        assert not any(vec.values())

    def test_segment_with_more_matches_than_8_bits_hold(self, table1_lexicon):
        # 300 copies of a polarity -1 lemma: its sums (300 and -300) overflow
        # any int8 or uint8 accumulator, so the mean must be its row exactly.
        novel = Novel(NovelMetadata("s", "t", "a", 1850, True), ("verabscheuen",) * 300 + ("und",) * 300)
        profile = profile_of(novel, table1_lexicon, n_segments=2)
        row = table1_lexicon.scores[table1_lexicon.entries["verabscheuen"]]
        assert row[DIMENSIONS.index("polarity")] == -1
        assert profile.segment_vectors[0].tobytes() == row.astype(float).tobytes()
        assert profile.matched_counts.tolist() == [300, 0]


class TestSectionMeans:
    def test_standard_partition_slices(self):
        partition = SectionPartition(75, 4, 4)
        assert partition.main_slice == slice(0, 71)
        assert partition.final_slice == slice(71, 75)
        assert partition.late_slice == slice(67, 71)

    def test_final_len_one_equals_last_segment(self):
        rng = np.random.default_rng(0)
        inputs = make_inputs(rng.random((75, 11)))
        final = feature_matrix(inputs, SectionPartition(75, 1, 0), 3)[0]
        np.testing.assert_array_equal(final, inputs.vectors[0, -1])

    def test_constant_profile_all_equal(self):
        row = np.arange(11.0)
        X = feature_matrix(make_inputs(np.tile(row, (75, 1))), SectionPartition(75, 4, 4), 5)
        final, final_minus_main, final_minus_late = X[0, :11], X[0, 11:22], X[0, 22:]
        np.testing.assert_allclose(final, row)
        np.testing.assert_allclose(final_minus_main, 0.0, atol=1e-15)
        np.testing.assert_allclose(final_minus_late, 0.0, atol=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(FeaturizationError):
            feature_matrix(make_inputs(np.zeros((10, 11))), SectionPartition(75, 4, 4), 3)

    def test_invalid_partition_rejected(self):
        with pytest.raises(FeaturizationError):
            SectionPartition(10, 8, 5)
        with pytest.raises(FeaturizationError):
            SectionPartition(10, 0, 0)

    @pytest.mark.parametrize("n_segments", [1, 10, 75])
    def test_empty_main_section_rejected(self, n_segments):
        # A final section over every segment leaves the main mean as NaN.
        with pytest.raises(FeaturizationError, match="final_len"):
            SectionPartition(n_segments, n_segments, 0)
        SectionPartition(n_segments + 1, n_segments, 0)


class TestBuildFeatures:
    """The six feature sets as built by ``feature_matrix``."""

    @pytest.fixture
    def random_inputs(self):
        rng = np.random.default_rng(7)
        return make_inputs(rng.random((75, 11)))

    def test_set1_is_last_segment(self, random_inputs):
        X = feature_matrix(random_inputs, SectionPartition(75, 4, 4), 1)
        np.testing.assert_array_equal(X[0], random_inputs.vectors[0, -1])

    @pytest.mark.parametrize("fsid,dim", sorted(FEATURE_SET_DIMS.items()))
    def test_dimensions(self, random_inputs, fsid, dim):
        X = feature_matrix(random_inputs, SectionPartition(75, 4, 4), fsid)
        assert X.shape == (1, dim)

    def test_constant_profile_zero_differences(self):
        inputs = make_inputs(np.tile(np.arange(11.0), (75, 1)))
        partition = SectionPartition(75, 4, 4)
        for fsid in (2, 4, 5, 6):
            X = feature_matrix(inputs, partition, fsid)
            diffs = X[0, 11:33] if fsid in (5, 6) else X[0, 11:22]
            np.testing.assert_allclose(diffs, 0.0, atol=1e-15)

    def test_set3_equals_set1_with_final_len_one(self, random_inputs):
        partition = SectionPartition(75, 1, 0)
        X1 = feature_matrix(random_inputs, partition, 1)
        X3 = feature_matrix(random_inputs, partition, 3)
        np.testing.assert_array_equal(X1, X3)

    def test_late_required_for_sets_5_6(self, random_inputs):
        partition = SectionPartition(75, 4, 0)
        for fsid in (5, 6):
            with pytest.raises(FeaturizationError, match="late_len"):
                feature_matrix(random_inputs, partition, fsid)

    def test_bad_feature_set_id(self, random_inputs):
        with pytest.raises(FeaturizationError):
            feature_matrix(random_inputs, SectionPartition(75, 4, 4), 7)

    def test_pure_function(self, random_inputs):
        partition = SectionPartition(75, 4, 4)
        a = feature_matrix(random_inputs, partition, 6)
        b = feature_matrix(random_inputs, partition, 6)
        np.testing.assert_array_equal(a, b)


class TestComputeProfile:
    def test_polarity_linearity(self, toy_lexicon):
        rng = random.Random(11)
        lemmas = tuple(
            rng.choice(sorted(toy_lexicon.entries) + ["oov1", "oov2"]) for _ in range(400)
        )
        novel = Novel(NovelMetadata("p", "t", "a", 1850, True), lemmas)
        profile = profile_of(novel, toy_lexicon)
        np.testing.assert_allclose(
            profile.segment_vectors[:, 2],
            profile.segment_vectors[:, 0] - profile.segment_vectors[:, 1],
            atol=1e-12,
        )

    def test_error_names_novel(self, toy_lexicon):
        novel = Novel(NovelMetadata("tiny", "t", "a", 1850, True), ("a",) * 10)
        with pytest.raises(FeaturizationError, match="tiny"):
            profile_of(novel, toy_lexicon)


def reference_write_profile_cache(profiles, stream):
    """The per-cell ``csv.writer`` loop whose bytes ``write_profile_cache`` must match."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CACHE_HEADER)
    for profile in profiles:
        rows = zip(profile.segment_vectors.tolist(), profile.matched_counts.tolist())
        for i, (vector, count) in enumerate(rows):
            writer.writerow([profile.novel_id, i, *(format(v, ".17g") for v in vector), count])


class TestProfileCache:
    def test_bytes_match_reference_writer(self):
        values = [0.1, 1 / 3, 0.0, -0.0, -1.0, 5e-324]
        vectors = np.array([np.roll(np.resize(values, N_DIMS), k) for k in range(len(values))])
        counts = np.arange(len(values))
        ids = ["a,b", 'q"x', "n1", "50%", "", "x\ny"]
        profiles = [SegmentProfile(novel_id, vectors, counts) for novel_id in ids]
        got, want = io.StringIO(), io.StringIO()
        write_profile_cache(profiles, got)
        reference_write_profile_cache(profiles, want)
        assert got.getvalue() == want.getvalue()
        assert '"a,b",0,0.10000000000000001,' in got.getvalue()
        assert '"q""x",' in got.getvalue() and ",-0," in got.getvalue()

    def test_roundtrip(self, toy_lexicon):
        rng = random.Random(3)
        profiles = []
        for i in range(3):
            lemmas = tuple(
                rng.choice(sorted(toy_lexicon.entries) + ["oov"]) for _ in range(200)
            )
            novel = Novel(NovelMetadata(f"n{i}", "t", "a", 1850, True), lemmas)
            profiles.append(profile_of(novel, toy_lexicon))
        buf = io.StringIO()
        write_profile_cache(profiles, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))[1:]
        assert len(rows) == 3 * 75
        for k, profile in enumerate(profiles):
            block = rows[k * 75 : (k + 1) * 75]
            assert {r[0] for r in block} == {profile.novel_id}
            assert [int(r[1]) for r in block] == list(range(75))
            back = np.array([[float(v) for v in r[2:-1]] for r in block])
            np.testing.assert_array_equal(back, profile.segment_vectors)
            np.testing.assert_array_equal([int(r[-1]) for r in block], profile.matched_counts)
