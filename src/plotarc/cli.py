"""Command-line entry point: ``plotarc featurize | run | synth``.

Every invocation echoes its resolved configuration before doing any work;
``--dry-run`` stops after the echo. Data errors exit with status 2 and the
originating module's message on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from plotarc.corpus import (
    CorpusError,
    demo_lexicon,
    generate_synthetic_corpus,
    load_corpus,
    load_lemma_map,
    write_corpus,
)
from plotarc.experiments import (
    ClassifierConfig,
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
from plotarc.features import SectionPartition, write_profile_cache
from plotarc.lexicon import LexiconError, load_lexicon_file, write_lexicon
from plotarc.svgplot import render_periods, render_sweep


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="directory of <id>.txt novel files")
    parser.add_argument("--metadata", required=True, help="metadata TSV (id/title/author/year/label)")
    parser.add_argument("--lexicon", required=True, help="sentiment lexicon TSV")
    parser.add_argument("--lemma-map", default=None, help="optional surface->lemma TSV")
    parser.add_argument("--segments", type=int, default=75, help="segments per novel")
    parser.add_argument("--final-len", type=int, default=4, help="segments in the final section")
    parser.add_argument("--late-len", type=int, default=None,
                        help="segments in the late-main section (default: mirrors --final-len)")
    parser.add_argument("--feature-set", type=int, default=3, choices=range(1, 7))
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--c", type=float, default=1.0, dest="C", help="SVM regularization trade-off")
    parser.add_argument("--epochs", type=int, default=200)
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


def _echo_config(args: argparse.Namespace) -> None:
    print("resolved configuration:")
    for key in sorted(vars(args)):
        if key == "command":
            continue
        print(f"  {key} = {getattr(args, key)}")


def _load_pipeline(args):
    lexicon_path = Path(args.lexicon)
    if not lexicon_path.is_file():
        raise LexiconError(f"lexicon file not found: {lexicon_path}")
    lexicon = load_lexicon_file(lexicon_path)
    lemma_map = load_lemma_map(args.lemma_map) if args.lemma_map else None
    corpus = load_corpus(args.corpus, args.metadata, lemma_map)
    return corpus, lexicon


def _partition(args) -> SectionPartition:
    late_len = args.late_len if args.late_len is not None else args.final_len
    return SectionPartition(args.segments, args.final_len, late_len)


def cmd_featurize(args) -> int:
    corpus, lexicon = _load_pipeline(args)
    inputs = prepare_inputs(corpus, lexicon, args.segments)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / "profiles.csv"
    with open(cache_path, "w", encoding="utf-8", newline="") as fh:
        write_profile_cache(inputs.profiles, fh)
    print(f"wrote {cache_path} ({len(inputs.profiles)} novels x {args.segments} segments)")
    for profile in inputs.profiles:
        total = int(profile.matched_counts.sum())
        print(f"  {profile.novel_id}: {total} lexicon-matched tokens "
              f"(min/segment {int(profile.matched_counts.min())}, "
              f"max/segment {int(profile.matched_counts.max())})")
    return 0


def _write_report(out_dir: Path, stem: str, csv_text: str, meta: str, svg: str | None = None) -> None:
    """``<stem>.csv``, ``<stem>.meta.txt`` and, when given, ``<stem>.svg``."""
    (out_dir / f"{stem}.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / f"{stem}.meta.txt").write_text(meta, encoding="utf-8")
    if svg is not None:
        (out_dir / f"{stem}.svg").write_text(svg, encoding="utf-8")


def cmd_run(args) -> int:
    corpus, lexicon = _load_pipeline(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = ClassifierConfig(folds=args.folds, seed=args.seed, C=args.C, epochs=args.epochs)

    if args.experiment == "baselines":
        random_exp, majority = run_baselines(corpus)
        _write_report(
            out_dir, "baselines",
            f"baseline,accuracy\nrandom_expectation,{random_exp:.6f}\nmajority_vote,{majority:.6f}\n",
            meta_text({"experiment": "baselines"}, corpus, lexicon),
        )
        print(f"random baseline {random_exp:.3f}, majority vote {majority:.3f}")
        return 0

    inputs = prepare_inputs(corpus, lexicon, args.segments)

    if args.experiment == "ladder":
        report = run_feature_ladder(inputs, _partition(args), config)
        _write_report(out_dir, "ladder", ladder_csv(report), meta_text(report.config, corpus, lexicon))
        for fsid, f1, acc in report.rows:
            print(f"feature set {fsid}: F1 {f1:.3f}, accuracy {acc:.3f}")
    elif args.experiment == "sweep":
        curve = run_partition_sweep(inputs, feature_set_id=args.feature_set, config=config)
        _write_report(
            out_dir, "sweep", sweep_csv(curve), meta_text(curve.config, corpus, lexicon),
            render_sweep(curve),
        )
        best = curve.argmax_point
        if best is not None:
            print(f"best F1 {best.f1:.3f} at main fraction {best.main_fraction:.3f} "
                  f"(final section {best.final_len} segments)")
    else:  # periods
        report = run_period_analysis(inputs, feature_set_id=args.feature_set, config=config)
        _write_report(
            out_dir, "periods", periods_csv(report), meta_text(report.config, corpus, lexicon),
            render_periods(report),
        )
        for group in report.groups:
            if group.curve is None:
                print(f"period {group.label}: skipped ({group.novel_count} novels)")
            elif (best := group.curve.argmax_point) is not None:
                print(f"period {group.label}: best F1 {best.f1:.3f} "
                      f"at final section {best.final_len} ({group.novel_count} novels)")
    return 0


def cmd_synth(args) -> int:
    lexicon = demo_lexicon()
    corpus = generate_synthetic_corpus(
        args.seed, args.n_novels, args.tokens_per_novel, args.ending_len, lexicon
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
    _echo_config(args)
    if args.dry_run:
        return 0
    try:
        if args.command == "featurize":
            return cmd_featurize(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_synth(args)
    except (CorpusError, LexiconError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
