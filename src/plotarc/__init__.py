"""Sentiment-based happy-ending detection for segmented novels.

The pipeline: parse an emotion lexicon, load (or synthesize) a corpus of
labeled novels, split each novel into equal segments, average per-segment
sentiment scores, assemble section-based feature vectors, and classify the
happy-ending label with a deterministic linear SVM under stratified
cross-validation. Import each name from its module: :mod:`plotarc.lexicon`,
:mod:`plotarc.corpus`, :mod:`plotarc.features`, :mod:`plotarc.svm`,
:mod:`plotarc.experiments` (the three analyses) and :mod:`plotarc.svgplot`.
"""

from plotarc._version import __version__
