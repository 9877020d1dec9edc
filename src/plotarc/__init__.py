"""Sentiment-based happy-ending detection for segmented novels.

The pipeline: parse an emotion lexicon, load (or synthesize) a corpus of
labeled novels, split each novel into equal segments, average per-segment
sentiment scores, assemble section-based feature vectors, and classify the
happy-ending label with a deterministic linear SVM under stratified
cross-validation. The :mod:`plotarc.experiments` module drives the three
standard analyses (feature ladder, partition sweep, publication-period
comparison).
"""

from plotarc._version import __version__
from plotarc.lexicon import (
    DIMENSIONS,
    LexiconError,
    SentimentLexicon,
    parse_lexicon,
    write_lexicon,
)
from plotarc.corpus import (
    Corpus,
    CorpusError,
    Novel,
    NovelMetadata,
    demo_lexicon,
    generate_synthetic_corpus,
    load_corpus,
    load_lemma_map,
    segment_bounds,
    tokenize,
)
from plotarc.features import (
    FeaturizationError,
    SectionPartition,
    SegmentProfile,
)
from plotarc.svm import TrainingError, cross_validate, f1_accuracy
from plotarc.experiments import (
    LadderReport,
    PeriodReport,
    SweepCurve,
    run_baselines,
    run_feature_ladder,
    run_partition_sweep,
    run_period_analysis,
)