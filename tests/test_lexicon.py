import numpy as np
import pytest
from hypothesis import given, strategies as st

from plotarc.lexicon import (
    DIMENSIONS,
    FILE_DIMENSIONS,
    POLARITY_INDEX,
    LexiconError,
    lexicon_to_text,
    load_lexicon_file,
    parse_lexicon,
)

from conftest import TABLE1_TSV


def scores_of(lexicon, lemma):
    """The lemma's score row, keyed by dimension name."""
    return dict(zip(DIMENSIONS, lexicon.scores[lexicon.entries[lemma]]))


def polarity_of(positive, negative):
    header = "lemma\tpositive\tnegative\tanger\tanticipation\tdisgust\tfear\tjoy\tsadness\tsurprise\ttrust\n"
    lex = parse_lexicon(header + f"w\t{positive}\t{negative}" + "\t0" * 8 + "\n")
    return lex.scores[0, POLARITY_INDEX]


class TestDerivePolarity:
    def test_positive_word(self):
        assert polarity_of(1, 0) == 1

    def test_negative_word(self):
        assert polarity_of(0, 1) == -1

    def test_neutral_word(self):
        assert polarity_of(0, 0) == 0


class TestParse:
    def test_table1_entries(self, table1_lexicon):
        assert table1_lexicon.size == 3
        v = scores_of(table1_lexicon, "verabscheuen")
        assert v["negative"] == 1 and v["polarity"] == -1
        assert v["anger"] == 1 and v["disgust"] == 1 and v["fear"] == 1
        assert v["positive"] == 0 and v["joy"] == 0 and v["trust"] == 0
        b = scores_of(table1_lexicon, "bewundernswert")
        assert b["positive"] == 1 and b["polarity"] == 1
        assert b["joy"] == 1 and b["trust"] == 1 and b["anger"] == 0
        z = scores_of(table1_lexicon, "Zufall")
        assert z["surprise"] == 1 and z["polarity"] == 0
        assert sum(z.values()) == 1  # surprise only

    def test_empty_stream(self):
        assert parse_lexicon("").size == 0

    def test_non_binary_value_names_line(self):
        bad = TABLE1_TSV.replace("Zufall\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0", "Zufall\t0\t0\t0\t0\t0\t0\t0\t0\t2\t0")
        with pytest.raises(LexiconError, match="line 3"):
            parse_lexicon(bad)

    def test_duplicate_lemma_rejected(self):
        with pytest.raises(LexiconError, match="duplicate lemma"):
            parse_lexicon(TABLE1_TSV + TABLE1_TSV.splitlines()[0] + "\n")

    def test_wrong_column_count(self):
        with pytest.raises(LexiconError, match="columns"):
            parse_lexicon("wort\t1\t0\n")

    def test_header_detected_and_remapped(self):
        # permuted header: positive column first
        text = (
            "lemma\tpositive\tnegative\tanger\tanticipation\tdisgust\tfear\tjoy\tsadness\tsurprise\ttrust\n"
            "gut\t1\t0\t0\t0\t0\t0\t1\t0\t0\t0\n"
        )
        lex = parse_lexicon(text)
        v = scores_of(lex, "gut")
        assert v["positive"] == 1 and v["joy"] == 1 and v["anger"] == 0

    def test_unknown_header_column(self):
        text = "lemma\tbogus\tnegative\tanger\tanticipation\tdisgust\tfear\tjoy\tsadness\tsurprise\ttrust\n"
        with pytest.raises(LexiconError, match="bogus"):
            parse_lexicon(text)

    def test_nfc_normalization_applied(self):
        # decomposed u + combining diaeresis collapses to the NFC form
        decomposed = "über"
        lex = parse_lexicon(decomposed + "\t0\t0\t0\t0\t0\t0\t1\t0\t0\t0\n")
        assert "über" in lex.entries

    def test_lookup_missing_returns_none(self, table1_lexicon):
        assert table1_lexicon.entries.get("xyzzy") is None


class TestLoadFile:
    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + TABLE1_TSV.encode("utf-8"))
        assert list(load_lexicon_file(path).entries) == ["verabscheuen", "bewundernswert", "Zufall"]

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        with pytest.raises(LexiconError) as info:
            load_lexicon_file(path)
        assert str(info.value).startswith(f"{path}: line 1: expected 11")


class TestInvariants:
    def test_polarity_consistency(self, table1_lexicon):
        scores = table1_lexicon.scores
        np.testing.assert_array_equal(scores[:, POLARITY_INDEX], scores[:, 0] - scores[:, 1])

    def test_roundtrip_identity(self, table1_lexicon):
        text = lexicon_to_text(table1_lexicon)
        again = parse_lexicon(text)
        assert again.entries == table1_lexicon.entries
        np.testing.assert_array_equal(again.scores, table1_lexicon.scores)

    @given(
        st.dictionaries(
            st.text(alphabet=st.characters(categories=("Ll", "Lu")), min_size=1, max_size=8),
            st.lists(st.integers(0, 1), min_size=10, max_size=10),
            max_size=20,
        )
    )
    def test_roundtrip_random_lexicons(self, rows):
        lines = [
            lemma + "\t" + "\t".join(map(str, bits)) for lemma, bits in rows.items()
        ]
        # NFC can merge distinct raw keys; skip such collisions
        try:
            lex = parse_lexicon("\n".join(lines) + ("\n" if lines else ""))
        except LexiconError:
            return
        again = parse_lexicon(lexicon_to_text(lex))
        assert again.entries == lex.entries
        np.testing.assert_array_equal(again.scores, lex.scores)
        assert lex.scores.shape == (lex.size, len(DIMENSIONS))
        np.testing.assert_array_equal(lex.scores[:, POLARITY_INDEX], lex.scores[:, 0] - lex.scores[:, 1])
        binary = np.delete(lex.scores, POLARITY_INDEX, axis=1)
        assert set(binary.ravel()) <= {0.0, 1.0}


class TestSentimentVector:
    """A sentiment vector is one row of the score matrix, in canonical order."""

    def test_dimension_order_fixed(self):
        assert DIMENSIONS[:3] == ("positive", "negative", "polarity")
        assert len(DIMENSIONS) == 11
        assert len(FILE_DIMENSIONS) == 10
