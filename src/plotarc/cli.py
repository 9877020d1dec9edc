"""Command-line entry point: ``plotarc featurize | run | synth``.

Every invocation resolves the settings its command reads into one ordered
dict before doing any work, and echoes it with the input and output paths;
a ``run`` command then refuses settings that no input could make valid,
and ``--dry-run`` stops there. Each report's meta file records the same
dict and input checksums alongside the results, so a report can be re-run
bit-identically. Data errors exit with status 2 and the originating module's
message on stderr.

``python -m plotarc.cli`` and the ``plotarc`` script run ``entry``; ``main``
changes nothing process-wide, so it can also be called in-process.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import asdict
from pathlib import Path

from plotarc.corpus import (
    demo_lexicon,
    generate_synthetic_corpus,
    load_corpus,
    load_lemma_map,
    write_corpus,
)
from plotarc.experiments import (
    PERIOD_CUTS,
    ClassifierConfig,
    best_points,
    check_settings,
    ladder_csv,
    meta_text,
    periods_csv,
    prepare_inputs,
    run_baselines,
    run_feature_ladder,
    run_partition_sweep,
    run_period_analysis,
    sweep_csv,
)
from plotarc.features import write_profile_cache
from plotarc.lexicon import LexiconError, load_lexicon_file, write_lexicon
from plotarc.svgplot import render_periods, render_sweep


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    classifier = ClassifierConfig()
    parser.add_argument("--corpus", required=True, help="directory of <id>.txt novel files")
    parser.add_argument("--metadata", required=True, help="metadata TSV (id/title/author/year/label)")
    parser.add_argument("--lexicon", required=True, help="sentiment lexicon TSV")
    parser.add_argument("--lemma-map", default=None, help="optional surface->lemma TSV")
    parser.add_argument("--segments", type=int, default=75, help="segments per novel")
    parser.add_argument("--final-len", type=int, default=4, help="segments in the final section")
    parser.add_argument("--feature-set", type=int, default=3, choices=range(1, 7))
    parser.add_argument("--folds", type=int, default=classifier.folds)
    parser.add_argument("--seed", type=int, default=classifier.seed)
    parser.add_argument("--c", type=float, default=classifier.C, dest="C",
                        help="SVM regularization trade-off")
    parser.add_argument("--epochs", type=int, default=classifier.epochs)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--dry-run", action="store_true", help="print resolved config and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plotarc",
                                     description="Sentiment-based happy-ending detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    feat = sub.add_parser("featurize", help="write the per-novel segment-profile cache")
    _add_common_flags(feat)

    run = sub.add_parser("run", help="run an experiment and write CSV/meta/SVG reports")
    run.add_argument("experiment", choices=["ladder", "sweep", "periods", "baselines"])
    _add_common_flags(run)

    synth = sub.add_parser("synth", help="generate a synthetic corpus with a planted ending")
    synth.add_argument("--seed", type=int, default=1)
    synth.add_argument("--n-novels", type=int, default=40)
    synth.add_argument("--tokens-per-novel", type=int, default=1500)
    synth.add_argument("--ending-len", type=int, default=4)
    synth.add_argument("--out", required=True)
    synth.add_argument("--dry-run", action="store_true")

    return parser


_PATHS = ("corpus", "metadata", "lexicon", "lemma_map", "out")


def _settings(args: argparse.Namespace) -> dict:
    """The settings ``args``'s command reads, in the order a report's meta file records
    them. Flags a command does not read are accepted but left out."""
    if args.command == "synth":
        return {"seed": args.seed, "n_novels": args.n_novels,
                "tokens_per_novel": args.tokens_per_novel, "ending_len": args.ending_len}
    if args.command == "featurize":
        return {"n_segments": args.segments}
    if args.experiment == "baselines":
        return {"experiment": "baselines"}
    partition = {
        "ladder": {"final_len": args.final_len},
        "sweep": {"feature_set": args.feature_set},
        "periods": {"period_cuts": ",".join(map(str, PERIOD_CUTS)), "feature_set": args.feature_set},
    }[args.experiment]
    classifier = ClassifierConfig(args.folds, args.seed, args.C, args.epochs)
    return {"n_segments": args.segments, **partition, **asdict(classifier)}


def _load_pipeline(args):
    lexicon_path = Path(args.lexicon)
    if not lexicon_path.is_file():
        raise LexiconError(f"lexicon file not found: {lexicon_path}")
    lexicon = load_lexicon_file(lexicon_path)
    lemma_map = load_lemma_map(args.lemma_map) if args.lemma_map else None
    return load_corpus(args.corpus, args.metadata, lemma_map), lexicon


def _ties(tied) -> str:
    """The final lengths of ``best_points``' tied points, as a suffix for the best point's stdout line."""
    return f"; tied at final lengths {', '.join(str(p.final_len) for p in tied)}" if tied else ""


def cmd_featurize(args, settings: dict) -> int:
    corpus, lexicon = _load_pipeline(args)
    inputs = prepare_inputs(corpus, lexicon, settings["n_segments"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / "profiles.csv"
    with open(cache_path, "w", encoding="utf-8", newline="") as fh:
        write_profile_cache(inputs.profiles, fh)
    print(f"wrote {cache_path} ({len(inputs.profiles)} novels x {inputs.n_segments} segments)")
    for profile in inputs.profiles:
        total = int(profile.matched_counts.sum())
        print(f"  {profile.novel_id}: {total} lexicon-matched tokens "
              f"(min/segment {int(profile.matched_counts.min())}, "
              f"max/segment {int(profile.matched_counts.max())})")
    return 0


def _write_report(out_dir: Path, stem: str, csv_text: str, meta: str, svg: str | None = None) -> None:
    """``<stem>.csv``, ``<stem>.meta.txt`` and, when given, ``<stem>.svg``, in ``out_dir``: made
    here, after the inputs are checked, so a failed run leaves no directory behind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / f"{stem}.meta.txt").write_text(meta, encoding="utf-8")
    if svg is not None:
        (out_dir / f"{stem}.svg").write_text(svg, encoding="utf-8")


def cmd_run(args, settings: dict) -> int:
    corpus, lexicon = _load_pipeline(args)
    out_dir = Path(args.out)

    if args.experiment == "baselines":
        random_exp, majority = run_baselines(corpus)
        _write_report(
            out_dir, "baselines",
            f"baseline,accuracy\nrandom_expectation,{random_exp:.6f}\nmajority_vote,{majority:.6f}\n",
            meta_text(settings, corpus, lexicon),
        )
        print(f"random baseline {random_exp:.3f}, majority vote {majority:.3f}")
        return 0

    inputs = prepare_inputs(corpus, lexicon, settings["n_segments"])
    config = ClassifierConfig(settings["folds"], settings["seed"], settings["C"], settings["epochs"])

    if args.experiment == "ladder":
        rows = run_feature_ladder(inputs, settings["final_len"], config)
        _write_report(out_dir, "ladder", ladder_csv(rows), meta_text(settings, corpus, lexicon))
        for fsid, f1, acc in rows:
            print(f"feature set {fsid}: F1 {f1:.3f}, accuracy {acc:.3f}")
    elif args.experiment == "sweep":
        points = run_partition_sweep(inputs, feature_set_id=settings["feature_set"], config=config)
        _write_report(
            out_dir, "sweep", sweep_csv(points), meta_text(settings, corpus, lexicon), render_sweep(points),
        )
        best, *tied = best_points(points)
        print(f"best F1 {best.f1:.3f} at main fraction {best.main_fraction:.3f} "
              f"(final section {best.final_len} segments{_ties(tied)})")
    else:  # periods
        groups = run_period_analysis(inputs, feature_set_id=settings["feature_set"], config=config)
        _write_report(
            out_dir, "periods", periods_csv(groups), meta_text(settings, corpus, lexicon),
            render_periods(groups),
        )
        for group in groups:
            if group.points is None:
                print(f"period {group.label}: skipped ({group.novel_count} novels)")
            else:
                best, *tied = best_points(group.points)
                print(f"period {group.label}: best F1 {best.f1:.3f} at final section "
                      f"{best.final_len}{_ties(tied)} ({group.novel_count} novels)")
    return 0


def cmd_synth(args, settings: dict) -> int:
    lexicon = demo_lexicon()
    corpus = generate_synthetic_corpus(
        settings["seed"], settings["n_novels"], settings["tokens_per_novel"], settings["ending_len"], lexicon
    )
    out_dir = Path(args.out)
    write_corpus(corpus, out_dir)
    with open(out_dir / "lexicon.tsv", "w", encoding="utf-8") as fh:
        write_lexicon(lexicon, fh)
    print(f"wrote {corpus.total} novels + metadata.tsv + lexicon.tsv to {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = _settings(args)
    paths = {name: getattr(args, name) for name in _PATHS if hasattr(args, name)}
    print("resolved configuration:")
    for key, value in {**settings, **paths}.items():
        print(f"  {key} = {value}")
    command = {"featurize": cmd_featurize, "run": cmd_run, "synth": cmd_synth}[args.command]
    try:
        if args.command == "run" and args.experiment != "baselines":
            check_settings(args.experiment, settings)
        return 0 if args.dry_run else command(args, settings)
    except BrokenPipeError:
        raise  # stdout's reader has gone: not a data error (see entry)
    except (OSError, ValueError) as exc:  # every plotarc error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """``main``'s exit status, in a process that ends after it.

    The heap built so far (about 22 000 objects, half of them from importing
    numpy and plotarc) is frozen first, so interpreter teardown does not
    collect it again; what the command makes is collected as usual. A closed
    stdout (``... | head``) ends the run with status 1 and nothing on stderr,
    as the Python docs advise for SIGPIPE; stdout then points at
    ``os.devnull``, so the final flush cannot raise again.
    """
    gc.freeze()
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(entry())
