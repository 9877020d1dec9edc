import hashlib
import json
import os
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


class TestSynth:
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
        args = pipeline_args(synth_corpus, out, ["--final-len", "75", "--late-len", "0"])
        assert main(["run", "ladder", *args]) == 2
        assert "final_len" in capsys.readouterr().err
        assert not (out / "ladder.csv").exists()

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
        assert "error: a partition sweep needs at least 2 segments, got 1\n" in capsys.readouterr().err
        assert not (out / f"{experiment}.csv").exists()

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
    # hashlib loads OpenSSL, about 3 MB of RSS; checksums use the built-in SHA-256.
    status, imported, after_featurize = modules_loaded_by(
        "featurize", *pipeline_args(synth_corpus, tmp_path / "out")
    )
    assert status == 0
    assert "plotarc.cli" in imported
    assert [m for m in after_featurize if m in ("hashlib", "_hashlib")] == []


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
    # A seed is split into 32-bit words; a negative one must be refused, not looped over.
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
        "sweep.csv": "2a8b915c3a284f748bb09d6d9d935498e07858dc3d0793a6860cc5783ba1d893",
        "sweep.meta.txt": "4d9f9288a088288f9fbd38d91a13324da9897eaac16334aa7e4c57aa019ca0b4",
        "sweep.svg": "5d4324b29bd1fc37b7b81574016fcb32e00b43e17199872e20651b49d2eea1b2",
    },
    "run periods": {
        "periods.csv": "a14466711ffcbff7eda939145005d78d82f5f5813340e9c4ad007cbbb88c0844",
        "periods.meta.txt": "fac3243d7528e4f43cb716f86b800a4e26698342408cf6f1c9da9c225c1b4972",
        "periods.svg": "9384e6604f6ef62e56ed797034b05c075a9d9a626d55e90defb822ef26276923",
    },
    "run ladder": {
        "ladder.csv": "296415235f84bb1907121bb5cb80f62dcd68dbd0cf4622229964d9f6cb6a4010",
        "ladder.meta.txt": "eb2ae9abd21d0e683a1f9c12eae4f61b762f9b61e3f31b612a81ad7617e490aa",
    },
    "run baselines": {
        "baselines.csv": "12c3e73575d840cce381bd6e167bc3ffa0c03439bf7a11a1086970f1ecf0a790",
        "baselines.meta.txt": "9f5171256b4c80d74f445458ba68a6ceab8d4933086dd1548865c60f287a41a8",
    },
}


def run_plotarc(*argv):
    subprocess.run([sys.executable, "-m", "plotarc.cli", *argv], env=checkout_env(),
                   capture_output=True, timeout=60, check=True)


@pytest.fixture(scope="module")
def pinned_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned") / "corpus"
    run_plotarc("synth", "--seed", "2", "--n-novels", "60", "--tokens-per-novel", "600", "--out", str(out))
    return out


@pytest.mark.parametrize("command", COMMAND_BYTES)
def test_command_output_bytes_are_pinned(command, pinned_corpus, tmp_path):
    out = tmp_path / "out"
    args = pipeline_args(pinned_corpus, out)
    args[args.index("--epochs") + 1] = "20"
    run_plotarc(*command.split(), *args)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in read_dir(out).items()}
    assert digests == COMMAND_BYTES[command]
