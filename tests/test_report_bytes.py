"""Pinned SHA-256 digests of the report writers' output for fixed reports.

The digests cover the cases the benchmark corpora never reach: an empty
sweep, a title that needs escaping, a period group with no points and a
period report whose groups are all skipped. No sweep driver returns an
empty sweep, which it refuses; only the writers still accept one. The profile cache
is pinned for a synthetic corpus and for a loaded one, so that no change of
id or score width can move one bit of ``profiles.csv``, and for a small
corpus built like the benchmark's ``ingest`` inputs (NRC-sized lexicon,
lemma map, punctuated text), as ``plotarc featurize`` writes it.
"""

import hashlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

from plotarc.cli import main
from plotarc.corpus import demo_lexicon, generate_synthetic_corpus, load_corpus
from plotarc.experiments import (
    PeriodGroup,
    SweepPoint,
    ladder_csv,
    periods_csv,
    prepare_inputs,
    sweep_csv,
)
from plotarc.features import write_profile_cache
from plotarc.svgplot import render_periods, render_sweep

CURVE = tuple(
    SweepPoint((75 - fl) / 75, fl, 0.5 + 0.01 * (10 - abs(fl - 4)) + fl / 3000)
    for fl in range(10, 0, -1)
)
SINGLE = (SweepPoint(0.8, 15, 2 / 3),)
EMPTY = ()
MIXED = (
    PeriodGroup("<=1830", 50, CURVE),
    PeriodGroup("1831-1848", 5, None),
    PeriodGroup("1849-1870", 30, EMPTY),
    PeriodGroup(">=1871", 41, SINGLE),
)
ALL_SKIPPED = (PeriodGroup("<=1830", 3, None), PeriodGroup(">=1831", 0, None))
LADDER = ((1, 0.5, 0.55), (3, 2 / 3, 0.7), (6, 1.0, 1 / 3))

OUTPUTS = {
    "sweep_curve": lambda: render_sweep(CURVE),
    "sweep_empty": lambda: render_sweep(EMPTY),
    "sweep_escaped_title": lambda: render_sweep(SINGLE, 'Tom & Jerry <"sweep"> > 0'),
    "periods_mixed": lambda: render_periods(MIXED),
    "periods_all_skipped": lambda: render_periods(ALL_SKIPPED),
    "sweep_csv": lambda: sweep_csv(CURVE),
    "periods_csv": lambda: periods_csv(MIXED),
    "ladder_csv": lambda: ladder_csv(LADDER),
}

DIGESTS = {
    "sweep_curve": "016dbb915e927b3fb8aff6bf2022193885c736d1db16e70fda906d47f7d565ca",
    "sweep_empty": "790fee2ec58ecfe419bc13f4d10d01bf2c27671a82c28f45b3e21ac37d74a84e",
    "sweep_escaped_title": "493af8cefe7f9d4d605a8f3cb24c2056c5a1f35f20be1a439d2dcb00012cd027",
    "periods_mixed": "a2ef48fa74f5b73460ede965b10b403a3ea169d4654884e15c77236090da8c81",
    "periods_all_skipped": "7c8955736ee176f4617b590725ee2331a5b6092d87f96eb11fcbdfaf4641cfc6",
    "sweep_csv": "e9b62ee16ce4727c2c4710628cd8e2e43e2272049f4b524c801d9b88fdb0f150",
    "periods_csv": "3f2ba65b71a060fbb15aad39573cc0da4ca7bc7c9080f7348838ff7537a1cd1d",
    "ladder_csv": "b75353df3e1e47ac00b2e98892928ad84549e34bd4fe157159135f231e6b0d66",
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_report_bytes_are_pinned(name):
    assert hashlib.sha256(OUTPUTS[name]().encode("utf-8")).hexdigest() == DIGESTS[name]


def profile_cache_bytes(corpus):
    buf = io.StringIO()
    write_profile_cache(prepare_inputs(corpus, demo_lexicon(), 75).profiles, buf)
    return buf.getvalue().encode("utf-8")


def loaded_corpus(tmp_path):
    """Six punctuated novels on disk, read with a lemma map onto demo-lexicon lemmas."""
    lemma_map = {"Freuden": "freude", "Tode": "tod", "Liebe": "liebe", "Qualen": "qual", "bittere": "bitter"}
    words = [*sorted(demo_lexicon().entries), *lemma_map, "und", "die", "Zeit", "Haus", "ging"]
    rng = random.Random(11)
    rows = ["id\ttitle\tauthor\tyear\tlabel"]
    for i, novel_id in enumerate(["n1", "n,2", 'n"3', "n4", "n5", "n6"]):
        marks = ["", "", "", ",", ".", "!", "\u00bb"]
        text = " ".join(rng.choice(words) + rng.choice(marks) for _ in range(300 + 37 * i))
        (tmp_path / f"{novel_id}.txt").write_text(text, encoding="utf-8")
        rows.append(f"{novel_id}\tTitle {i}\tAuthor\t{1800 + 20 * i}\t{'happy' if i % 2 else 'unhappy'}")
    (tmp_path / "metadata.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return load_corpus(tmp_path, tmp_path / "metadata.tsv", lemma_map)


PROFILE_CACHE_DIGESTS = {
    "synthetic": "8603a5aefefff22e61365c5013b8d98e3c45c2348dab8ad053aadcda83467c6b",
    "loaded": "8808db0f501f6e9be22c7e5d4f3362740fbd0dcd499e746f8431207e4cab4cda",
}


def test_profile_cache_bytes_are_pinned(tmp_path):
    synthetic = generate_synthetic_corpus(3, 10, 900, 4, demo_lexicon())
    digests = {
        "synthetic": hashlib.sha256(profile_cache_bytes(synthetic)).hexdigest(),
        "loaded": hashlib.sha256(profile_cache_bytes(loaded_corpus(tmp_path))).hexdigest(),
    }
    assert digests == PROFILE_CACHE_DIGESTS


INGEST_SHAPED_DIGEST = "7baf84560674b12f3f6331bc3b5324bd635105a7721ae86c22f76bf81d126ec3"


def test_ingest_shaped_profile_cache_is_pinned(tmp_path, monkeypatch):
    """20 novels x 600 tokens from the benchmark's own ``ingest`` builders."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    builders = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, builders)  # its dataclasses look themselves up there
    spec.loader.exec_module(builders)
    inputs = builders.build(tmp_path / "work", 7, 20, 600, True, 1)
    out = tmp_path / "out"
    assert main([
        "featurize", "--corpus", inputs.corpus_dir, "--metadata", inputs.metadata,
        "--lexicon", inputs.lexicon, "--lemma-map", inputs.lemma_map,
        "--segments", "75", "--out", str(out),
    ]) == 0
    assert hashlib.sha256((out / "profiles.csv").read_bytes()).hexdigest() == INGEST_SHAPED_DIGEST
