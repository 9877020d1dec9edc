#!/usr/bin/env python3
"""plotarc benchmark: each measured run is one ``plotarc`` CLI command in a
fresh child process, started one at a time.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from anywhere inside a source checkout; the package is taken from the
checkout's ``src/``, nothing is installed. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run (see
``traced.py``). ``--workload all`` runs every workload untraced and prints one
table. The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

SETUP_REPEATS = 5
MIN_SAMPLES = 3  # untraced commands per run, so that wall_s is a median
MIN_TRACE_PAIRS = 2  # two traced commands are needed to see counts repeat
RUN_DEADLINE_S = 165.0  # a run, set-up included, must end within 180 s
REFERENCE_S = 1.0  # reported times are seconds at the speed where reference.py takes this long

N_SEGMENTS = 75
# The paper's settings, passed explicitly, except --epochs (200 in the paper):
# at 200 epochs one paper-scale sweep command takes over a minute on a 2-core
# machine, too long to repeat within one run. See README.md.
CLI_FLAGS = ("--segments", str(N_SEGMENTS), "--folds", "10", "--epochs", "10",
             "--c", "1.0", "--feature-set", "3", "--seed", "42")

PER_LAYER = (
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("lexicon.parse_s", "s"), ("lexicon.entries", "count"),
    ("corpus.load_s", "s"), ("corpus.tokenize_s", "s"), ("corpus.tokens", "count"),
    ("corpus.tokens_per_s", "1/s"),
    ("features.profiles_s", "s"), ("features.matched_rate", "ratio"),
    ("features.matrix_s", "s"), ("features.matrix_calls", "count"),
    ("features.cache_write_s", "s"),
    ("svm.cv_s", "s"), ("svm.cv_calls", "count"), ("svm.models", "count"),
    ("svm.sgd_steps", "count"), ("svm.steps_per_s", "1/s"), ("svm.share", "ratio"),
    ("experiments.meta_s", "s"), ("experiments.self_s", "s"),
    ("svgplot.render_s", "s"),
    ("trace.overhead_s", "s"),
)
# Counts that depend only on the inputs: they must repeat exactly across the
# traced commands of one seed.
EXACT_COUNTS = ("lexicon.entries", "corpus.tokens", "features.matched_rate",
                "features.matrix_calls", "svm.cv_calls", "svm.models", "svm.sgd_steps")

PROFILE_HEADER = ["novel_id", "segment_index", "positive", "negative", "polarity", "anger",
                  "anticipation", "disgust", "fear", "joy", "sadness", "surprise", "trust",
                  "matched_count"]


class CheckError(Exception):
    """An output file is missing or malformed."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    n_novels: int
    tokens_per_novel: int
    nrc: bool  # NRC-sized lexicon, lemma map and punctuated surface text


# Why each workload is there, and which layer it loads, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", ("run", "sweep"), 212, 3000, False),
        Workload("periods", ("run", "periods"), 120, 5000, False),
        Workload("ingest", ("featurize",), 212, 5000, True),
    )
}


@dataclass
class Sample:
    traced: bool
    wall: float
    rss_mb: float
    error: str | None = None
    digest: str | None = None
    f1: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckError(f"{path.name}: header {rows[:1]}")
    return rows[1:]


def _f1(cell: str, where: str) -> float:
    value = float(cell)
    if not 0.0 <= value <= 1.0:
        raise CheckError(f"{where}: F1 {cell} outside [0, 1]")
    return value


def _check_curve(rows: list[list[str]], where: str) -> list[float]:
    """A swept curve: one row per final-section length 1..N/2, F1 in [0, 1]."""
    if sorted(int(r[1]) for r in rows) != list(range(1, N_SEGMENTS // 2 + 1)):
        raise CheckError(f"{where}: final_len values are not 1..{N_SEGMENTS // 2}")
    return [_f1(r[2], where) for r in rows]


def _check_svg_and_meta(out: Path, stem: str, n_novels: int) -> None:
    try:
        root = ET.parse(out / f"{stem}.svg").getroot()
    except (OSError, ET.ParseError) as exc:
        raise CheckError(f"{stem}.svg: {exc}") from None
    if not root.tag.endswith("svg"):
        raise CheckError(f"{stem}.svg: root element {root.tag}")
    meta_path = out / f"{stem}.meta.txt"
    if not meta_path.is_file():
        raise CheckError(f"missing {meta_path.name}")
    meta = dict(line.split(" = ", 1) for line in meta_path.read_text(encoding="utf-8").splitlines())
    if meta.get("corpus_novels") != str(n_novels) or len(meta.get("corpus_checksum", "")) != 64:
        raise CheckError(f"{meta_path.name}: corpus fields {meta.get('corpus_novels')!r}")


def check_sweep(out: Path, inputs) -> list[float]:
    rows = _rows(out / "sweep.csv", ["main_fraction", "final_len", "f1"])
    if len(rows) != N_SEGMENTS // 2:
        raise CheckError(f"sweep.csv: {len(rows)} rows, expected {N_SEGMENTS // 2}")
    f1 = _check_curve(rows, "sweep.csv")
    _check_svg_and_meta(out, "sweep", len(inputs.ids))
    return f1


def check_periods(out: Path, inputs) -> list[float]:
    rows = _rows(out / "periods.csv", ["period", "main_fraction", "final_len", "f1", "n_novels"])
    groups: dict[str, list[list[str]]] = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row[1:])
    skipped = [g for g, rs in groups.items() if rs[0][0] == "skipped"]
    if len(groups) != 4 or len(skipped) != 1 or len(groups[skipped[0]]) != 1:
        raise CheckError(f"periods.csv: groups {list(groups)}, skipped {skipped}")
    f1 = []
    for label, rs in groups.items():
        if label not in skipped:
            f1 += _check_curve(rs, f"periods.csv group {label}")
    if sum(int(rs[0][3]) for rs in groups.values()) != len(inputs.ids):
        raise CheckError("periods.csv: group sizes do not add up to the corpus")
    _check_svg_and_meta(out, "periods", len(inputs.ids))
    return f1


def check_profiles(out: Path, inputs) -> list[float]:
    rows = _rows(out / "profiles.csv", PROFILE_HEADER)
    expected = [(novel_id, str(i)) for novel_id in inputs.ids for i in range(N_SEGMENTS)]
    if [(r[0], r[1]) for r in rows] != expected:
        raise CheckError(f"profiles.csv: {len(rows)} rows, expected {len(inputs.ids)} x {N_SEGMENTS} in order")
    matched = 0
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row[2:-1]) or int(row[-1]) < 0:
            raise CheckError(f"profiles.csv: bad values for {row[0]} segment {row[1]}")
        matched += int(row[-1])
    if matched != inputs.matched_tokens:
        raise CheckError(f"profiles.csv: {matched} matched tokens, the text holds {inputs.matched_tokens}")
    return []


CHECKS = {"sweep": check_sweep, "periods": check_periods, "ingest": check_profiles}


def output_digest(out: Path) -> str:
    """SHA-256 over every output file's name and bytes; no timing is written there."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced command's spans
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Self time per span name (duration minus direct children), counts, ratios."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, start, end in trace["spans"]:
        if parent is not None:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    total = 0.0
    for span_id, name, parent, start, end in trace["spans"]:
        self_s[name] += (end - start) - child_time[span_id]
        calls[name] += 1
        if parent is None:
            total += end - start
    counts = Counter(trace["counts"])
    cv_s = self_s["svm.cross_validate"]
    return {
        "cli.import_s": trace["import_s"],
        "cli.self_s": self_s["cli.main"],
        "lexicon.parse_s": self_s["lexicon.load_lexicon_file"],
        "lexicon.entries": counts["lexicon.entries"],
        "corpus.load_s": self_s["corpus.load_corpus"],
        "corpus.tokenize_s": self_s["corpus.tokenize"],
        "corpus.tokens": counts["corpus.tokens"],
        "corpus.tokens_per_s": _ratio(counts["corpus.tokens"], self_s["corpus.tokenize"]),
        "features.profiles_s": self_s["features.compute_profiles"],
        "features.matched_rate": _ratio(counts["features.matched_tokens"], counts["features.lemmas"]),
        "features.matrix_s": self_s["experiments.feature_matrix"],
        "features.matrix_calls": calls["experiments.feature_matrix"],
        "features.cache_write_s": self_s["features.write_profile_cache"],
        "svm.cv_s": cv_s,
        "svm.cv_calls": calls["svm.cross_validate"],
        "svm.models": counts["svm.models"],
        "svm.sgd_steps": counts["svm.sgd_steps"],
        "svm.steps_per_s": _ratio(counts["svm.sgd_steps"], cv_s),
        "svm.share": _ratio(cv_s, total),
        "experiments.meta_s": self_s["experiments.meta_text"],
        "experiments.self_s": self_s["experiments.run_partition_sweep"]
        + self_s["experiments.run_period_analysis"],
        "svgplot.render_s": self_s["svgplot.render_sweep"] + self_s["svgplot.render_periods"],
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _spawn(argv: list[str], stderr, deadline: float) -> tuple[float, float, int | None]:
    """Run ``argv`` to its end: (wall s, peak RSS MB, exit status or None if killed at ``deadline``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr, env=env, cwd=ROOT)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(deadline - time.perf_counter(), 0.0))
        finally:
            os.close(fd)
        if not ready:
            proc.kill()
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    _, status, rusage = os.wait4(proc.pid, 0)  # reaps it and returns its own rusage
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, rusage.ru_maxrss / 1024.0, proc.returncode if ready else None  # ru_maxrss is in KiB


def reference_wall(deadline: float) -> float:
    wall, _, status = _spawn([sys.executable, str(BENCH_DIR / "reference.py")], None, deadline)
    if status != 0:
        raise RuntimeError(f"reference.py ended with status {status}")
    return wall


def run_command(workload: Workload, inputs, work: Path, k: int, traced: bool,
                deadline: float) -> Sample:
    out = work / f"out-{k}"
    spans_path = work / f"spans-{k}.json"
    cli_args = [*workload.command, "--corpus", str(inputs.corpus_dir),
                "--metadata", str(inputs.metadata), "--lexicon", str(inputs.lexicon)]
    if inputs.lemma_map is not None:
        cli_args += ["--lemma-map", str(inputs.lemma_map)]
    cli_args += [*CLI_FLAGS, "--out", str(out)]
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans_path), *cli_args]
    else:
        argv = [sys.executable, "-m", "plotarc.cli", *cli_args]

    stderr_path = work / f"stderr-{k}.txt"
    with open(stderr_path, "w", encoding="utf-8") as err:
        wall, rss_mb, status = _spawn(argv, err, deadline)
    sample = Sample(traced, wall, rss_mb)
    try:
        if status is None:
            raise CheckError("killed at the run deadline")
        if status != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            raise CheckError(f"exit status {status}: {tail}")
        sample.f1 = CHECKS[workload.name](out, inputs)
        sample.digest = output_digest(out)
        if traced:
            sample.layers = layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
    except CheckError as exc:
        sample.error = str(exc)
    except (ValueError, IndexError, OSError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out, ignore_errors=True)
        for path in (spans_path, stderr_path):
            path.unlink(missing_ok=True)
    return sample


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def environment() -> dict:
    """Informational fields: where the numbers came from. Never gated."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, deadline: float):
    """Returns (attempted, failed, problems, metrics, info).

    Untraced: a reference run, then set-up repeats and commands, each
    followed by a reference run. Traced: set-up once, then untraced and
    traced commands in turn.
    """
    work = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    samples: list[Sample] = []
    try:
        # Set-up runs in a child process (see inputs.py), so this process stays small.
        argv = [sys.executable, str(BENCH_DIR / "inputs.py"), str(work), str(seed),
                str(workload.n_novels), str(workload.tokens_per_novel), str(int(workload.nrc)),
                str(1 if trace else SETUP_REPEATS)]
        err_path = work / "setup-stderr.txt"
        with open(err_path, "w", encoding="utf-8") as err:
            _, _, status = _spawn(argv, err, deadline)
        if status != 0:
            raise RuntimeError(f"inputs.py ended with status {status}: "
                               + err_path.read_text(encoding="utf-8")[-500:])
        built = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
        inputs = SimpleNamespace(**built["inputs"])
        refs: list[float] = built["reference_s"]
        min_samples = 2 * MIN_TRACE_PAIRS if trace else MIN_SAMPLES
        start = time.perf_counter()
        while True:
            typical = statistics.median(s.wall for s in samples) if samples else 0.0
            typical += statistics.median(refs) if refs else 0.0
            now = time.perf_counter()
            if samples and (now + typical > deadline or (
                    len(samples) >= min_samples and now - start + typical > seconds)):
                break
            samples.append(run_command(workload, inputs, work, len(samples),
                                       trace and len(samples) % 2 == 1, deadline))
            if samples[-1].error == "killed at the run deadline":
                break
            if not trace:
                refs.append(reference_wall(deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    digests = Counter(s.digest for s in samples if s.digest)
    digest = digests.most_common(1)[0][0] if digests else None
    for s in samples:
        if s.error is None and s.digest != digest:
            s.error = f"output digest {s.digest[:12]} differs from {digest[:12]}"
    failed = sum(1 for s in samples if s.error)
    problems = sorted({s.error for s in samples if s.error})

    plain = [s for s in samples if not s.traced]
    if trace:
        layered = [s for s in samples if s.traced and s.error is None]
        metrics = {}
        for name, unit in PER_LAYER[:-1]:
            values = [s.layers[name] for s in layered]
            if name in EXACT_COUNTS:
                if len(set(values)) > 1:
                    problems.append(f"{name} differs across traced commands: {sorted(set(values))}")
                metrics[name] = _metric(values[0] if values else 0, unit)
            else:
                metrics[name] = _metric(statistics.median(values) if values else 0.0, unit)
        traced_walls = [s.wall for s in samples if s.traced]
        overhead = statistics.median(traced_walls) - statistics.median(s.wall for s in plain) \
            if traced_walls else 0.0
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    else:
        # Each set-up repeat and each command is divided by the mean of the
        # reference runs on either side of it: the result is in seconds at the
        # speed where reference.py takes REFERENCE_S, which cancels much of the
        # drift in a shared host's speed.
        def scaled(times, refs):
            return [t * 2.0 * REFERENCE_S / (r0 + r1) for t, r0, r1 in zip(times, refs, refs[1:])]

        walls = scaled([s.wall for s in plain], refs[SETUP_REPEATS:])
        walls = walls or [s.wall / refs[-1] for s in plain]  # the only command was killed
        metrics = {
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(statistics.median(s.rss_mb for s in plain), "MB"),
            "setup_s": _metric(statistics.median(scaled(inputs.setup_times, refs)), "s"),
        }
    info = {
        "workload": workload.name,
        "seed": seed,
        "commands": len(samples),
        "raw_walls_s": [s.wall for s in plain],
        "raw_setup_s": list(inputs.setup_times),
        "reference_s": refs,
        "digest": digest,
        "f1": next((s.f1 for s in samples if s.digest == digest), []),
        "problems": problems,
    }
    return len(samples), failed, problems, metrics, info


def _print_table(name: str, metrics: dict, attempted: int, failed: int, info: dict) -> None:
    print(f"{name} (seed {info['seed']}, {attempted} commands):")
    for metric, m in metrics.items():
        print(f"  {metric:<24} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<24} {failed / attempted:.6g} ratio ({failed} of {attempted} commands failed)")
    print(f"  {'digest':<24} {info['digest']}")
    for problem in info["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Turn SIGTERM into an exception, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "plotarc" / "__init__.py").is_file():
        print(f"error: no plotarc sources at {SRC}; run from a plotarc source checkout",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    # Set-up, reference and commands all run on one CPU, one at a time (children
    # inherit the mask): vCPUs of a shared host differ in speed, and a process
    # moved between them mid-run would mix both speeds into one time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) and args.workload != "all"
    attempted = failed = 0
    all_metrics: dict[str, dict] = {}
    problems: list[str] = []
    for name in names:
        a, f, p, metrics, info = run_workload(
            WORKLOADS[name], args.seed, args.seconds, trace, started + RUN_DEADLINE_S * len(names))
        attempted, failed, problems = attempted + a, failed + f, problems + p
        _print_table(name, metrics, a, f, info)
        print("info " + json.dumps(info))
        if len(names) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{name}.{k}": v for k, v in metrics.items()})
            all_metrics[f"{name}.error_rate"] = _metric(f / a, "ratio")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
