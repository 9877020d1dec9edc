"""Run one plotarc CLI command in this process with spans at layer boundaries.

    python3 perfbench/traced.py SPANS_JSON <plotarc CLI arguments...>

The package must be importable (``run.py`` puts ``src`` on
``PYTHONPATH``). The import itself is timed, then the layer-boundary names
are replaced, in the module where the program looks each one up, by a
wrapper that records a span (name, start, end, parent) and the counts the
per-layer metrics need. ``src/`` is not edited. Spans stay in memory and are
written to SPANS_JSON once the command has returned; the process exits with
the command's status.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


class Tracer:
    """In-memory span recorder; spans nest through a stack of open span ids."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent id or None, start, end]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def call(self, name: str, fn, *args, **kwargs):
        span = [len(self.spans), name, self._open[-1] if self._open else None, 0.0, 0.0]
        self.spans.append(span)
        self._open.append(span[0])
        span[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        """Replace ``module.attr`` by a traced wrapper; ``counter`` sees bound arguments.

        A name the program no longer has is left alone: it reports zero calls.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        setattr(module, attr, traced)


def _count_entries(tracer, args, lexicon):
    tracer.count("lexicon.entries", lexicon.size)


def _count_tokens(tracer, args, tokens):
    tracer.count("corpus.tokens", len(tokens))


def _count_matched(tracer, args, profiles):
    tracer.count("features.matched_tokens", sum(int(p.matched_counts.sum()) for p in profiles))
    tracer.count("features.lemmas", sum(len(n.lemmas) for n in args["corpus"].novels))


def _count_training(tracer, args, metrics):
    # Every row sits in exactly one held-out fold, so the training rows over
    # all folds sum to (folds - 1) * n, and each epoch visits each row once.
    folds, n = args["folds"], len(args["y"])
    tracer.count("svm.models", folds)
    tracer.count("svm.sgd_steps", args["epochs"] * (folds - 1) * n)


def install(tracer: Tracer, cli, corpus, experiments) -> None:
    tracer.wrap(cli, "load_lexicon_file", "lexicon.load_lexicon_file", _count_entries)
    tracer.wrap(cli, "load_corpus", "corpus.load_corpus")
    tracer.wrap(corpus, "tokenize", "corpus.tokenize", _count_tokens)
    tracer.wrap(experiments, "compute_profiles", "features.compute_profiles", _count_matched)
    tracer.wrap(experiments, "feature_matrix", "experiments.feature_matrix")
    tracer.wrap(cli, "write_profile_cache", "features.write_profile_cache")
    tracer.wrap(experiments, "cross_validate", "svm.cross_validate", _count_training)
    tracer.wrap(cli, "run_partition_sweep", "experiments.run_partition_sweep")
    tracer.wrap(cli, "run_period_analysis", "experiments.run_period_analysis")
    tracer.wrap(cli, "meta_text", "experiments.meta_text")
    tracer.wrap(cli, "render_sweep", "svgplot.render_sweep")
    tracer.wrap(cli, "render_periods", "svgplot.render_periods")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("plotarc.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer, cli, importlib.import_module("plotarc.corpus"),
            importlib.import_module("plotarc.experiments"))
    status = tracer.call("cli.main", cli.main, cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
