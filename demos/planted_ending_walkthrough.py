"""End-to-end walkthrough on a synthetic corpus with a planted happy ending.

Generates 60 novels whose last four (of 75) segments are biased toward
positive or negative vocabulary depending on the label, then runs the
feature ladder and the partition sweep and writes the reports next to this
script under ``demo_out/``.

Run:  python3 demos/planted_ending_walkthrough.py
"""

from pathlib import Path

from plotarc.corpus import demo_lexicon, generate_synthetic_corpus
from plotarc.experiments import (
    ClassifierConfig,
    best_points,
    ladder_csv,
    prepare_inputs,
    run_baselines,
    run_feature_ladder,
    run_partition_sweep,
    sweep_csv,
)
from plotarc.svgplot import render_sweep

out_dir = Path(__file__).parent / "demo_out"
out_dir.mkdir(exist_ok=True)

lexicon = demo_lexicon()
corpus = generate_synthetic_corpus(
    seed=11, n_novels=60, tokens_per_novel=2000, ending_len_segments=4, lexicon=lexicon
)
print(f"corpus: {corpus.total} novels ({corpus.happy} happy / {corpus.unhappy} unhappy)")
random_exp, majority = run_baselines(corpus)
print(f"baselines: random {random_exp:.2f}, majority vote {majority:.2f}")

inputs = prepare_inputs(corpus, lexicon)
config = ClassifierConfig(folds=10, seed=42, C=1.0, epochs=200)

print("\nfeature ladder (final section = 4 segments):")
rows = run_feature_ladder(inputs, 4, config)
for fsid, f1, acc in rows:
    print(f"  set {fsid}: F1 {f1:.3f}  accuracy {acc:.3f}")
(out_dir / "ladder.csv").write_text(ladder_csv(rows))

print("\npartition sweep (final section length 1..20):")
points = run_partition_sweep(inputs, final_lens=range(20, 0, -1), feature_set_id=3, config=config)
best = best_points(points)[0]
print(f"  best F1 {best.f1:.3f} at final section length {best.final_len} "
      f"(planted boundary was 4)")
(out_dir / "sweep.csv").write_text(sweep_csv(points))
(out_dir / "sweep.svg").write_text(render_sweep(points, "Planted-ending partition sweep"))
print(f"\nreports written to {out_dir}")
