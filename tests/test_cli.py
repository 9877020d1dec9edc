import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plotarc
from plotarc.cli import main
from plotarc.corpus import demo_lexicon
from plotarc.lexicon import write_lexicon


@pytest.fixture
def lexicon_file(tmp_path):
    path = tmp_path / "lexicon.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        write_lexicon(demo_lexicon(), fh)
    return path


@pytest.fixture
def synth_corpus(tmp_path):
    out = tmp_path / "corpus"
    assert main([
        "synth", "--seed", "1", "--n-novels", "20", "--tokens-per-novel", "600",
        "--ending-len", "4", "--out", str(out),
    ]) == 0
    return out


def pipeline_args(corpus_dir, out, extra=()):
    return [
        "--corpus", str(corpus_dir),
        "--metadata", str(corpus_dir / "metadata.tsv"),
        "--lexicon", str(corpus_dir / "lexicon.tsv"),
        "--folds", "5", "--epochs", "50",
        "--out", str(out),
        *extra,
    ]


def read_dir(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def echo_of(stdout):
    """The ``(key, value)`` lines of a command's "resolved configuration" echo, in order."""
    header, *lines = stdout.splitlines()
    assert header == "resolved configuration:"
    echo = itertools.takewhile(lambda line: line.startswith("  "), lines)
    return [tuple(line[2:].split(" = ", 1)) for line in echo]


class TestSynth:
    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["synth", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_writes_expected_files(self, synth_corpus):
        names = {p.name for p in synth_corpus.iterdir()}
        assert "metadata.tsv" in names and "lexicon.tsv" in names
        assert sum(1 for n in names if n.endswith(".txt")) == 20
        metadata_lines = (synth_corpus / "metadata.tsv").read_text().strip().splitlines()
        assert len(metadata_lines) == 21  # header + 20 rows

    def test_deterministic(self, tmp_path):
        args = ["synth", "--seed", "3", "--n-novels", "8", "--tokens-per-novel", "300",
                "--ending-len", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_dir(a) == read_dir(b)

    def test_odd_count_rejected(self, tmp_path):
        assert main(["synth", "--n-novels", "7", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_two_rejected(self, count, tmp_path, capsys):
        assert main(["synth", "--n-novels", count, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "n_novels must be a positive even number" in err and f"got {count}\n" in err
        assert not (tmp_path / "x").exists()

    def test_same_bytes_under_any_hash_seed(self, tmp_path):
        code = "import sys; from plotarc.cli import main; sys.exit(main(sys.argv[1:]))"
        args = ["synth", "--seed", "5", "--n-novels", "4", "--tokens-per-novel", "300", "--ending-len", "3"]
        for hash_seed in ("0", "1"):
            run_python(code, *args, "--out", str(tmp_path / hash_seed), PYTHONHASHSEED=hash_seed)
        assert read_dir(tmp_path / "0") == read_dir(tmp_path / "1")


class TestFeaturize:
    def test_cache_row_count(self, synth_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["featurize", *pipeline_args(synth_corpus, out)]) == 0
        lines = (out / "profiles.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 20 * 75

    def test_missing_lexicon_exits_2(self, synth_corpus, tmp_path, capsys):
        args = pipeline_args(synth_corpus, tmp_path / "out")
        args[args.index("--lexicon") + 1] = str(tmp_path / "nope.tsv")
        assert main(["featurize", *args]) == 2
        assert "nope.tsv" in capsys.readouterr().err

    def test_out_path_that_is_a_file_exits_2(self, synth_corpus, tmp_path, capsys):
        # An OSError from the file system, not one of plotarc's own errors.
        out = tmp_path / "out"
        out.write_text("", encoding="utf-8")
        assert main(["featurize", *pipeline_args(synth_corpus, out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and str(out) in err

    def test_zero_segments_exits_2(self, synth_corpus, tmp_path, capsys):
        args = pipeline_args(synth_corpus, tmp_path / "out", ["--segments", "0"])
        assert main(["featurize", *args]) == 2
        assert "segments must be at least 1" in capsys.readouterr().err

    def test_malformed_lexicon_error_names_file(self, synth_corpus, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\tc\n", encoding="utf-8")
        args = pipeline_args(synth_corpus, tmp_path / "out")
        args[args.index("--lexicon") + 1] = str(bad)
        assert main(["featurize", *args]) == 2
        assert f"error: {bad}: line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reader, name", [("lexicon", "lexicon.tsv"), ("lemma-map", "lemmas.tsv"),
                         ("metadata", "metadata.tsv"), ("text", "synth-0003.txt")],
    )
    def test_undecodable_bytes_error_names_file(self, reader, name, synth_corpus, tmp_path, capsys):
        args = pipeline_args(synth_corpus, tmp_path / "out")
        bad = synth_corpus / name
        if reader == "lemma-map":
            bad.write_text("ging\tgehen\n", encoding="utf-8")
            args += ["--lemma-map", str(bad)]
        bad.write_bytes(bad.read_bytes() + b"\xff")  # 0xff never occurs in UTF-8
        assert main(["featurize", *args]) == 2
        assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, name, content",
        [("--lexicon", "lexicon.tsv", "\t1\t0\t0\t0\t0\t0\t0\t0\t0\t0\n"),
         ("--lemma-map", "lemmas.tsv", "freude\t\n")],
    )
    def test_empty_cell_exits_2_naming_file_and_line(self, flag, name, content, synth_corpus, tmp_path, capsys):
        args = pipeline_args(synth_corpus, tmp_path / "out")
        bad = synth_corpus / name
        if flag == "--lemma-map":
            args += [flag, str(bad)]
        with open(bad, "a", encoding="utf-8") as fh:
            fh.write(content)
        line = len(bad.read_text(encoding="utf-8").splitlines())
        assert main(["featurize", *args]) == 2
        assert f"error: {bad}: line {line}: empty " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "surface", ["Hause ", " Hause", "Zu Hause", "Glück,", "„Glück", "Haus-", "Hause\u00a0", "Hause\x1c"]
    )
    def test_lemma_map_surface_no_token_can_equal_exits_2(self, surface, synth_corpus, tmp_path, capsys):
        # Tokens are split on whitespace and stripped of edge punctuation, so
        # such a line would never match anything.
        bad = tmp_path / "lemmas.tsv"
        bad.write_text(f"Freude\tfreude\n{surface}\thaus\n", encoding="utf-8")
        args = [*pipeline_args(synth_corpus, tmp_path / "out"), "--lemma-map", str(bad)]
        assert main(["featurize", *args]) == 2
        assert f"error: {bad}: line 2: surface form {surface!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("surface", ["geht's", "z.B", "Haus-Tür", "Ärger"])
    def test_lemma_map_surface_with_inner_punctuation_accepted(self, surface, synth_corpus, tmp_path):
        good = tmp_path / "lemmas.tsv"
        good.write_text(f"{surface}\tx\n", encoding="utf-8")
        args = [*pipeline_args(synth_corpus, tmp_path / "out"), "--lemma-map", str(good)]
        assert main(["featurize", *args]) == 0

    def test_dry_run_echoes_only_what_featurize_reads(self, synth_corpus, tmp_path, capsys):
        # Flags featurize does not read stay accepted (a benchmark passes the
        # same flags to every command) but are not echoed as if they applied.
        out = tmp_path / "out"
        before = read_dir(synth_corpus)
        args = pipeline_args(synth_corpus, out, ["--folds", "0", "--feature-set", "6", "--dry-run"])
        assert main(["featurize", *args]) == 0
        assert echo_of(capsys.readouterr().out) == [
            ("n_segments", "75"), ("corpus", str(synth_corpus)),
            ("metadata", str(synth_corpus / "metadata.tsv")), ("lexicon", str(synth_corpus / "lexicon.tsv")),
            ("lemma_map", "None"), ("out", str(out)),
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["corpus"]
        assert read_dir(synth_corpus) == before

    def test_rerun_byte_identical(self, synth_corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["featurize", *pipeline_args(synth_corpus, a)]) == 0
        assert main(["featurize", *pipeline_args(synth_corpus, b)]) == 0
        assert read_dir(a) == read_dir(b)


class TestRun:
    def test_ladder_outputs(self, synth_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "ladder", *pipeline_args(synth_corpus, out)]) == 0
        lines = (out / "ladder.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + 6 feature sets
        assert (out / "ladder.meta.txt").exists()

    def test_baselines(self, synth_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "baselines", *pipeline_args(synth_corpus, out)]) == 0
        text = (out / "baselines.csv").read_text()
        assert "majority_vote,0.500000" in text

    def test_periods_outputs(self, synth_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "periods", *pipeline_args(synth_corpus, out)]) == 0
        assert (out / "periods.csv").exists()
        assert (out / "periods.svg").exists()

    def test_epochs_below_one_exits_2(self, synth_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        args = pipeline_args(synth_corpus, out)
        args[args.index("--epochs") + 1] = "-2"
        assert main(["run", "ladder", *args]) == 2
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not (out / "ladder.csv").exists()

    @pytest.mark.parametrize("experiment", ["ladder", "sweep"])
    @pytest.mark.parametrize("c", ["nan", "inf", "1e308"])
    def test_non_finite_c_exits_2(self, experiment, c, synth_corpus, tmp_path, capsys):
        # 1e308 passes the range check but overflows the step size in training.
        out = tmp_path / "out"
        assert main(["run", experiment, *pipeline_args(synth_corpus, out, ["--c", c])]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / f"{experiment}.csv").exists()

    def test_final_section_over_every_segment_exits_2(self, synth_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "ladder", *pipeline_args(synth_corpus, out, ["--final-len", "75"])]) == 2
        assert "final_len" in capsys.readouterr().err
        assert not (out / "ladder.csv").exists()

    @pytest.mark.parametrize("experiment,flag,value,message", [
        ("ladder", "--final-len", "75", "final_len must be in 1..74"),
        ("sweep", "--epochs", "0", "epochs must be >= 1, got 0"),
    ])
    def test_failed_run_leaves_no_out_dir(self, experiment, flag, value, message, synth_corpus, tmp_path, capsys):
        # The output directory is made by the first report written, not before the inputs are checked.
        out = tmp_path / "out"
        assert main(["run", experiment, *pipeline_args(synth_corpus, out, [flag, value])]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_final_section_without_room_for_late_main_exits_2(self, synth_corpus, tmp_path, capsys):
        # Sets 5 and 6 read a late-main section as long as the final one: 38 + 38 > 75.
        out = tmp_path / "out"
        assert main(["run", "ladder", *pipeline_args(synth_corpus, out, ["--final-len", "38"])]) == 2
        assert "2 * final_len <= 75" in capsys.readouterr().err
        assert not (out / "ladder.csv").exists()

    def test_late_len_flag_refused(self, synth_corpus, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "ladder", *pipeline_args(synth_corpus, tmp_path / "out", ["--late-len", "4"])])
        assert exc.value.code == 2
        assert "unrecognized arguments: --late-len 4" in capsys.readouterr().err

    def test_best_f1_lines_list_tied_final_lengths(self, tmp_path, capsys):
        # Novels this long separate perfectly at several final lengths.
        corpus = tmp_path / "corpus"
        assert main(["synth", "--n-novels", "40", "--tokens-per-novel", "8000", "--out", str(corpus)]) == 0
        tied_curves = 0
        for experiment in ("sweep", "periods"):
            out = tmp_path / experiment
            args = pipeline_args(corpus, out)
            args[args.index("--folds") + 1] = "2"
            capsys.readouterr()
            assert main(["run", experiment, *args]) == 0
            lines = [line for line in capsys.readouterr().out.splitlines() if "best F1" in line]
            with open(out / f"{experiment}.csv", encoding="utf-8") as fh:
                rows = [row for row in csv.DictReader(fh) if row["f1"] != "skipped"]
            curves = {}
            for row in rows:
                curves.setdefault(row.get("period"), []).append(row)
            assert len(lines) == len(curves)
            for line, points in zip(lines, curves.values()):
                best = max(float(row["f1"]) for row in points)
                at_best = sorted(int(row["final_len"]) for row in points if float(row["f1"]) == best)
                shown = re.search(r"final section (\d+)(?: segments)?(?:; tied at final lengths ([\d, ]+))?", line)
                tied = [int(n) for n in shown[2].split(", ")] if shown[2] else []
                assert [int(shown[1]), *tied] == at_best, line
                tied_curves += len(at_best) > 1
        assert tied_curves >= 2

    @pytest.mark.parametrize("novel_id", ["", ".", "..", "../outside", "a\\b"])
    def test_id_that_is_not_a_file_name_exits_2(self, novel_id, synth_corpus, tmp_path, capsys):
        # The text <id>.txt exists where the id points, so only the id check stops the run.
        metadata = synth_corpus / "metadata.tsv"
        header, first, *rest = metadata.read_text(encoding="utf-8").splitlines()
        old_id, cells = first.split("\t", 1)
        metadata.write_text("\n".join([header, f"{novel_id}\t{cells}", *rest]) + "\n", encoding="utf-8")
        (synth_corpus / f"{old_id}.txt").rename(synth_corpus / f"{novel_id}.txt")
        assert main(["run", "baselines", *pipeline_args(synth_corpus, tmp_path / "out")]) == 2
        assert f"error: {metadata}: row 2: id {novel_id!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("featurize",), ("run", "sweep")])
    def test_metadata_without_rows_exits_2_naming_file(self, command, synth_corpus, tmp_path, capsys):
        metadata = synth_corpus / "metadata.tsv"
        metadata.write_text("id\ttitle\tauthor\tyear\tlabel\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([*command, *pipeline_args(synth_corpus, out)]) == 2
        assert f"error: {metadata}: no novels listed" in capsys.readouterr().err
        assert not (out / "profiles.csv").exists() and not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("header_only", [False, True], ids=["empty", "header-only"])
    @pytest.mark.parametrize("command", [("featurize",), ("run", "sweep")])
    def test_lexicon_without_entries_exits_2_naming_file(self, command, header_only, synth_corpus, tmp_path, capsys):
        lexicon = synth_corpus / "lexicon.tsv"
        header = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        assert header.startswith("lemma\t")
        lexicon.write_text(header if header_only else "", encoding="utf-8")
        out = tmp_path / "out"
        assert main([*command, *pipeline_args(synth_corpus, out)]) == 2
        assert f"error: {lexicon}: no lexicon entries" in capsys.readouterr().err
        assert not (out / "profiles.csv").exists() and not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("command, segments", [(("run", "sweep"), 10**12), (("featurize",), 10**18)])
    def test_more_segments_than_the_shortest_novel_exits_2(
        self, command, segments, synth_corpus, tmp_path, capsys
    ):
        # The (novels, segments, 11) stack of these counts cannot be allocated
        # (10**18 overflows numpy's size limit), so the check must come first.
        (synth_corpus / "synth-0003.txt").write_text("ein kurzer Text\n", encoding="utf-8")
        args = pipeline_args(synth_corpus, tmp_path / "out", ["--segments", str(segments)])
        assert main([*command, *args]) == 2
        err = capsys.readouterr().err
        assert f"error: novel 'synth-0003': cannot split 3 lemmas into {segments} non-empty segments" in err

    def test_periods_meta_records_segments_and_cuts(self, synth_corpus, tmp_path):
        metas = []
        for segments in ("50", "75"):
            out = tmp_path / segments
            assert main(["run", "periods", *pipeline_args(synth_corpus, out, ["--segments", segments])]) == 0
            metas.append((out / "periods.meta.txt").read_text(encoding="utf-8"))
        assert metas[0] != metas[1]
        for segments, meta in zip((50, 75), metas):
            assert f"n_segments = {segments}\n" in meta
            assert "period_cuts = 1830,1848,1870\n" in meta

    @pytest.mark.parametrize("experiment", ["sweep", "periods"])
    def test_one_segment_sweep_exits_2(self, experiment, synth_corpus, tmp_path, capsys):
        # The default grid, every final length from n // 2 down to 1, is empty for one segment.
        out = tmp_path / "out"
        assert main(["run", experiment, *pipeline_args(synth_corpus, out, ["--segments", "1"])]) == 2
        assert "error: a partition sweep needs a final length, got none for 1 segments\n" in capsys.readouterr().err
        assert not (out / f"{experiment}.csv").exists()

    # One setting no input can make valid per case, with the message the run prints for it.
    @pytest.mark.parametrize("experiment, flags, message", [
        ("periods", ["--folds", "1"], "folds must be >= 2"),
        ("sweep", ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ("ladder", ["--epochs", "0"], "epochs must be >= 1, got 0"),
        ("sweep", ["--c", "0"], "C must be positive and finite, got 0.0"),
        ("periods", ["--segments", "0"], "the number of segments must be at least 1, got 0"),
        ("sweep", ["--segments", "1"], "a partition sweep needs a final length, got none for 1 segments"),
        ("ladder", ["--final-len", "75"],
         "final_len must be in 1..74 for 75 segments (a non-empty main section), got 75"),
        ("ladder", ["--final-len", "38"], "feature set 5 needs 2 * final_len <= 75 segments "
                                          "(a late-main section as long as the final one), got final_len 38"),
    ], ids=["folds", "seed", "epochs", "C", "segments", "sweep-grid", "final-len", "late-main"])
    def test_dry_run_refuses_what_the_run_refuses(self, experiment, flags, message, synth_corpus, tmp_path, capsys):
        # The dry run reads no input (its paths do not exist) and still exits as the real run does.
        assert main(["run", experiment, *pipeline_args(synth_corpus, tmp_path / "out", flags)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        missing = tmp_path / "missing"
        dry = pipeline_args(missing, tmp_path / "dry", [*flags, "--dry-run"])
        assert main(["run", experiment, *dry]) == 2
        stdout, stderr = capsys.readouterr()
        assert stderr == f"error: {message}\n"
        assert echo_of(stdout)[-1] == ("out", str(tmp_path / "dry"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--c", "inf"]])
    def test_periods_with_every_group_skipped_still_checks_training_settings(
        self, flags, synth_corpus, tmp_path, capsys
    ):
        # At 5 folds every period group of the 20-novel corpus is too small to sweep.
        assert main(["run", "periods", *pipeline_args(synth_corpus, tmp_path / "ok")]) == 0
        assert "best F1" not in capsys.readouterr().out
        assert main(["run", "periods", *pipeline_args(synth_corpus, tmp_path / "out", flags)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_baselines_dry_run_checks_no_numeric_setting(self, synth_corpus, tmp_path):
        # Baselines read none of the numeric flags, so none is checked.
        flags = ["--folds", "0", "--final-len", "75", "--segments", "0", "--dry-run"]
        assert main(["run", "baselines", *pipeline_args(synth_corpus, tmp_path / "out", flags)]) == 0

    def test_dry_run_prints_config_only(self, synth_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "ladder", *pipeline_args(synth_corpus, out, ["--dry-run"])]) == 0
        assert "resolved configuration" in capsys.readouterr().out
        assert not out.exists()


def checkout_env(**env_vars):
    """The environment with this checkout's package first on the path, ``env_vars`` added."""
    env = dict(os.environ, **env_vars)
    src = str(Path(plotarc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(code, *argv, **env_vars):
    """Standard output of ``python -c code *argv`` with this checkout's package,
    ``env_vars`` added to the environment."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=checkout_env(**env_vars),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout


def test_cli_import_pulls_in_no_xml_or_http_stack():
    # A snapshot of sys.modules before the import ignores whatever site loads.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import plotarc.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    new = json.loads(run_python(code))
    assert "plotarc.cli" in new
    heavy = [m for m in new if m.split(".")[0] in ("xml", "http", "email") or m == "urllib.request"]
    assert heavy == []


def test_package_import_loads_only_its_version():
    # The package re-exports nothing but __version__; every name lives in its module.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import plotarc\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    new = json.loads(run_python(code))
    assert [m for m in new if m.split(".")[0] in ("numpy", "plotarc")] == ["plotarc", "plotarc._version"]


def modules_loaded_by(*argv):
    """Exit status of ``plotarc *argv`` in a fresh interpreter, the modules that
    importing ``plotarc.cli`` loaded, and those loaded once the command ended."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import plotarc.cli\n"
        "imported = set(sys.modules) - before\n"
        "status = plotarc.cli.main(sys.argv[1:])\n"
        "print(json.dumps([status, sorted(imported), sorted(set(sys.modules) - before)]))\n"
    )
    return json.loads(run_python(code, *argv).splitlines()[-1])


def test_neither_import_nor_featurize_loads_hashlib(synth_corpus, tmp_path):
    # hashlib loads OpenSSL, about 3 MB of RSS; checksums use the built-in
    # BLAKE2b, and featurize writes no checksum, so it loads no hash module.
    status, imported, after_featurize = modules_loaded_by(
        "featurize", *pipeline_args(synth_corpus, tmp_path / "out")
    )
    assert status == 0
    assert "plotarc.cli" in imported
    hash_modules = ("_blake2", "_sha2", "_sha256", "hashlib", "_hashlib")
    assert [m for m in after_featurize if m in hash_modules] == []


@pytest.mark.parametrize("experiment", ["sweep", "periods"])
def test_run_loads_neither_numpy_random_nor_openssl(experiment, synth_corpus, tmp_path):
    # numpy.random's extensions and secrets -> hashlib -> OpenSSL are about
    # 5.6 MB of a run's peak RSS; its shuffles and checksums need neither.
    status, _, after_run = modules_loaded_by(
        "run", experiment, *pipeline_args(synth_corpus, tmp_path / "out")
    )
    assert status == 0
    assert (tmp_path / "out" / f"{experiment}.meta.txt").exists()
    loaded = [m for m in after_run if m.startswith("numpy.random") or m in ("secrets", "_hashlib")]
    assert loaded == []


def test_negative_seed_exits_2(synth_corpus, tmp_path):
    # random.Random would silently use a negative seed's absolute value; it must be refused.
    done = subprocess.run(
        [sys.executable, "-m", "plotarc.cli", "run", "sweep",
         *pipeline_args(synth_corpus, tmp_path / "out", ["--seed", "-1"])],
        env=checkout_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.endswith("error: seed must be a non-negative integer, got -1\n")


# SHA-256 of every file each command writes for a 60-novel synth corpus
# (seed 2, 600 tokens per novel) at --folds 5 --epochs 20. The periods run
# sweeps three groups and skips 1831-1848 (8 novels).
COMMAND_BYTES = {
    "featurize": {
        "profiles.csv": "7cf7e7d4878a143c467f0c17ae1fe0863f1f3d1ad4b01ca9906f38661eb89569",
    },
    "run sweep": {
        "sweep.csv": "87120ce9710b401a9ef7b9e8632dbc7e9d696fe1878ccf3872678844a54d9f05",
        "sweep.meta.txt": "7c1c160313887b0b49714999d1dd341892285faaff38af6ee0a0470cefd70a08",
        "sweep.svg": "521bed025d2d775b6dead41df31de6e9ba6c7c785d2b2507255aa3e4a9df0b36",
    },
    "run periods": {
        "periods.csv": "804d1bc167b9c9dc7cd043c1bd7359365eecd70c32bc8dda3ec4593a29d2bd0a",
        "periods.meta.txt": "0704bb033642ef17381ade5953b9941b26743afb9e403bc0798658da93b30467",
        "periods.svg": "dc1571f60de3401424f39971a669439fd1d886794afc85a93911a6f140a3257d",
    },
    "run ladder": {
        "ladder.csv": "ee7d0f13f12f18126be52169c9ddcb0eb5a36cab420c9fdea07ae194bed85c00",
        "ladder.meta.txt": "5315504ee663bb880ccd1c28d7245801db0d8b667a2eeda1620527af4b4151e0",
    },
    "run baselines": {
        "baselines.csv": "12c3e73575d840cce381bd6e167bc3ffa0c03439bf7a11a1086970f1ecf0a790",
        "baselines.meta.txt": "c5c2b408369e2310ebe15ed760651b334fe798e74120ee4e4e65a1b93e7a2c69",
    },
}


def run_plotarc(*argv):
    """Standard output of ``plotarc *argv`` run with this checkout's package."""
    return subprocess.run([sys.executable, "-m", "plotarc.cli", *argv], env=checkout_env(),
                          capture_output=True, text=True, timeout=60, check=True).stdout


@pytest.fixture(scope="module")
def pinned_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned") / "corpus"
    run_plotarc("synth", "--seed", "2", "--n-novels", "60", "--tokens-per-novel", "600", "--out", str(out))
    return out


@pytest.fixture(scope="module")
def command_outputs(pinned_corpus, tmp_path_factory):
    """Each command in ``COMMAND_BYTES``'s standard output and the bytes of every file it writes."""
    outputs = {}
    for command in COMMAND_BYTES:
        out = tmp_path_factory.mktemp("out")
        args = pipeline_args(pinned_corpus, out)
        args[args.index("--epochs") + 1] = "20"
        outputs[command] = run_plotarc(*command.split(), *args), read_dir(out)
    return outputs


@pytest.mark.parametrize("command", COMMAND_BYTES)
def test_command_output_bytes_are_pinned(command, command_outputs):
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in command_outputs[command][1].items()}
    assert digests == COMMAND_BYTES[command]


@pytest.mark.parametrize("command", [command for command in COMMAND_BYTES if command.startswith("run ")])
def test_echoed_settings_are_the_meta_settings(command, command_outputs):
    # The echo lists the settings the meta file records, key for key and in
    # order, then the input and output paths.
    stdout, files = command_outputs[command]
    meta = [tuple(line.split(" = ", 1)) for line in files[f"{command[4:]}.meta.txt"].decode().splitlines()]
    keys = [key for key, _ in meta]
    settings = meta[keys.index("plotarc_version") + 1:keys.index("checksum_algorithm")]
    assert settings
    echo = echo_of(stdout)
    assert echo[:len(settings)] == settings
    assert [key for key, _ in echo[len(settings):]] == ["corpus", "metadata", "lexicon", "lemma_map", "out"]


def test_meta_lines_are_key_value_pairs_with_hex_checksums(command_outputs):
    # Readers of a meta file take each line as one "key = value" pair and
    # expect both checksums as bare 64-digit lowercase hex; the algorithm
    # has its own line.
    metas = [data for _, files in command_outputs.values()
             for name, data in files.items() if name.endswith(".meta.txt")]
    assert len(metas) == 4
    for data in metas:
        pairs = [line.split(" = ") for line in data.decode("utf-8").splitlines()]
        assert all(len(pair) == 2 for pair in pairs)
        meta = dict(pairs)
        assert len(meta) == len(pairs)
        assert meta["checksum_algorithm"] == "blake2b-256"
        assert re.fullmatch("[0-9a-f]{64}", meta["corpus_checksum"])
        assert re.fullmatch("[0-9a-f]{64}", meta["lexicon_checksum"])
