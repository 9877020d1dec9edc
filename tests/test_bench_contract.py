"""Contract between the benchmark and the program.

``perfbench/traced.py`` replaces layer-boundary names in the modules where
the program looks them up, and silently leaves alone a name the program no
longer has. These tests fail when a refactor renames, moves or bypasses a
wrapped name, so the per-layer metrics cannot go blind unnoticed. The
outputs of the traced commands also go through ``perfbench/run.py``'s own
output checks, so a header or row-shape change fails here too.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from plotarc import cli, corpus, experiments

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"
RUN = ROOT / "perfbench" / "run.py"


def _load(path, name):
    """A benchmark script, imported by path (registered first: dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class _Recorder:
    """Stands in for the tracer: records each wrap request, wraps nothing."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, counter=None):
        self.wrapped.append((module, attr, name))


def _wrapped():
    recorder = _Recorder()
    _load(TRACED, "traced_under_test").install(recorder, cli, corpus, experiments)
    return recorder.wrapped


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """The synthetic corpus, and the spans and counts (``traces``) and output
    directories (``outs``) of traced ``featurize``, ``run sweep`` and ``run periods``."""
    tmp = tmp_path_factory.mktemp("contract")
    corpus_dir = tmp / "corpus"
    assert cli.main([
        "synth", "--seed", "2", "--n-novels", "20", "--tokens-per-novel", "300",
        "--ending-len", "4", "--out", str(corpus_dir),
    ]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    traces, outs = {}, {}
    for command in (["featurize"], ["run", "sweep"], ["run", "periods"]):
        name = "-".join(command)
        spans = tmp / f"{name}.json"
        done = subprocess.run(
            [sys.executable, str(TRACED), str(spans), *command,
             "--corpus", str(corpus_dir), "--metadata", str(corpus_dir / "metadata.tsv"),
             "--lexicon", str(corpus_dir / "lexicon.tsv"),
             "--folds", "2", "--epochs", "2", "--out", str(tmp / name)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        traces[name] = json.loads(spans.read_text(encoding="utf-8"))
        outs[name] = tmp / name
    return SimpleNamespace(corpus=corpus_dir, traces=traces, outs=outs)


@pytest.fixture(scope="module")
def traces(traced_runs):
    return traced_runs.traces


def test_every_wrapped_name_exists():
    missing = [f"{m.__name__}.{attr}" for m, attr, _ in _wrapped() if not callable(getattr(m, attr, None))]
    assert not missing, f"traced.py wraps names the program no longer has: {missing}"


def test_every_wrapped_span_recorded(traces):
    recorded = {span[1] for trace in traces.values() for span in trace["spans"]}
    never = sorted({name for _, _, name in _wrapped()} - recorded)
    assert not never, f"wrapped but never called: {never}"


def test_counters_non_zero(traces):
    for name, trace in traces.items():
        assert trace["counts"], f"{name}: no counters recorded"
        zero = [counter for counter, value in trace["counts"].items() if value <= 0]
        assert not zero, f"{name}: zero counters {zero}"


def test_benchmark_inputs_feed_featurize(tmp_path):
    """``perfbench/inputs.py`` builds ``Novel(meta, tuple_of_str)`` corpora, reads
    ``novel.lemmas`` and calls ``write_corpus``; ``featurize`` must load what it writes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work = tmp_path / "work"
    built = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inputs.py"), str(work), "1", "4", "300", "1", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert built.returncode == 0, built.stderr
    corpus_dir = work / "corpus"
    featurized = subprocess.run(
        [sys.executable, "-m", "plotarc.cli", "featurize",
         "--corpus", str(corpus_dir), "--metadata", str(corpus_dir / "metadata.tsv"),
         "--lexicon", str(work / "lexicon.tsv"), "--lemma-map", str(work / "lemma_map.tsv"),
         "--segments", "75", "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert featurized.returncode == 0, featurized.stderr


def test_outputs_pass_the_benchmark_checks(traced_runs):
    """``run.py``'s ``check_sweep``, ``check_periods`` and ``check_profiles`` accept the
    outputs: 37 sweep points, three swept period groups and one skipped, and
    profiles whose matched counts add up to the lexicon lemmas in the text."""
    run = _load(RUN, "run_under_test")
    corpus_dir = traced_runs.corpus
    rows = (corpus_dir / "metadata.tsv").read_text(encoding="utf-8").splitlines()[1:]
    ids = tuple(row.split("\t", 1)[0] for row in rows)
    lexicon_rows = (corpus_dir / "lexicon.tsv").read_text(encoding="utf-8").splitlines()[1:]
    lemmas = {row.split("\t", 1)[0] for row in lexicon_rows}
    matched = sum(token in lemmas for i in ids
                  for token in (corpus_dir / f"{i}.txt").read_text(encoding="utf-8").split())
    inputs = SimpleNamespace(ids=ids, matched_tokens=matched)
    assert matched > 0
    assert len(run.check_sweep(traced_runs.outs["run-sweep"], inputs)) == 37
    assert len(run.check_periods(traced_runs.outs["run-periods"], inputs)) == 3 * 37
    run.check_profiles(traced_runs.outs["featurize"], inputs)
