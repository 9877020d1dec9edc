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

    def test_dry_run_prints_config_only(self, synth_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "ladder", *pipeline_args(synth_corpus, out, ["--dry-run"])]) == 0
        assert "resolved configuration" in capsys.readouterr().out
        assert not out.exists()


def run_python(code, *argv):
    """Standard output of ``python -c code *argv`` with this checkout's package."""
    env = dict(os.environ)
    src = str(Path(plotarc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60, check=True
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


def test_neither_import_nor_featurize_loads_hashlib(synth_corpus, tmp_path):
    # hashlib loads OpenSSL, about 4 MB of RSS; only run reports' checksums use it.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import plotarc.cli\n"
        "imported = set(sys.modules) - before\n"
        "status = plotarc.cli.main(sys.argv[1:])\n"
        "print(json.dumps([status, sorted(imported), sorted(set(sys.modules) - before)]))\n"
    )
    out = run_python(code, "featurize", *pipeline_args(synth_corpus, tmp_path / "out"))
    status, imported, after_featurize = json.loads(out.splitlines()[-1])
    assert status == 0
    assert "plotarc.cli" in imported
    assert [m for m in after_featurize if m in ("hashlib", "_hashlib")] == []
