"""Seeded workload inputs, written to disk through the program's own path.

    python3 perfbench/inputs.py WORKDIR SEED N_NOVELS TOKENS_PER_NOVEL NRC REPEATS

Every input is a pure function of the workload seed: the same seed gives
byte-identical files. Nothing is downloaded. The ``ingest`` workload adds
what the demo lexicon lacks: an NRC-sized lexicon of generated lemmas, a
``surface<TAB>lemma`` map of inflected and capitalised forms, and text
carrying punctuation that the tokenizer has to strip.

``run.py`` runs this as a child process, so that the benchmark process never
holds a corpus: a child's peak RSS as reported by ``wait4`` includes the
memory of the process that started it. When REPEATS is above 1, the
reference program runs before the first repeat and after each one, and its
wall times are written with the set-up times to WORKDIR/inputs.json.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from plotarc.corpus import Corpus, Novel, demo_lexicon, generate_synthetic_corpus, write_corpus
from plotarc.lexicon import FILE_DIMENSIONS, SentimentLexicon, parse_lexicon, write_lexicon

PLANTED_ENDING_LEN = 4
NRC_LEXICON_SIZE = 14182

# Share of NRC lemmas flagged in each file column. The real lexicon leaves
# most lemmas without any association; these rates keep it that sparse.
_DIMENSION_RATES = {
    "anger": 0.10, "anticipation": 0.06, "disgust": 0.07, "fear": 0.10, "joy": 0.05,
    "negative": 0.23, "positive": 0.16, "sadness": 0.08, "surprise": 0.04, "trust": 0.09,
}
_ONSETS = ("b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "st", "sch", "tr", "br", "kl", "gr", "pf", "sp")
_VOWELS = ("a", "e", "i", "o", "u", "ä", "ö", "ü", "au", "ei", "ie")
_CODAS = ("", "n", "r", "l", "s", "t", "ch", "ng", "m", "ck")
_SUFFIXES = ("e", "en", "er", "es", "s", "em")
_TRAILING = (",", ".", ";", ":", "!", "?", "…")
_QUOTES = (("„", "“"), ("»", "«"), ("(", ")"))


@dataclass(frozen=True)
class Inputs:
    """Paths handed to the CLI plus figures the output checks compare against."""

    corpus_dir: str
    metadata: str
    lexicon: str
    lemma_map: str | None
    ids: tuple[str, ...]
    matched_tokens: int | None  # ingest only: lexicon lemmas in the text, after lemma mapping
    setup_times: tuple[float, ...]


def _pseudo_word(rng: random.Random) -> str:
    syllables = rng.randint(2, 3)
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables)) + rng.choice(_CODAS)


def nrc_sized_lexicon(rng: random.Random) -> SentimentLexicon:
    """A lexicon of NRC size with generated lemmas, parsed by the program's parser."""
    lemmas: dict[str, None] = {}
    while len(lemmas) < NRC_LEXICON_SIZE:
        lemmas[_pseudo_word(rng)] = None
    rows = ["lemma\t" + "\t".join(FILE_DIMENSIONS)]
    for lemma in lemmas:
        cells = ["1" if rng.random() < _DIMENSION_RATES[d] else "0" for d in FILE_DIMENSIONS]
        rows.append(lemma + "\t" + "\t".join(cells))
    return parse_lexicon("\n".join(rows) + "\n")


def lemma_map_for(lexicon: SentimentLexicon, rng: random.Random) -> dict[str, list[str]]:
    """Two inflected forms and a capitalised form per lemma, no surface form shared."""
    taken = set(lexicon.entries)
    forms: dict[str, list[str]] = {}
    for lemma in lexicon.entries:
        candidates = [lemma + s for s in rng.sample(_SUFFIXES, 2)] + [lemma.capitalize()]
        forms[lemma] = [c for c in candidates if c not in taken]
        taken.update(forms[lemma])
    return forms


def _surface_novel(novel: Novel, forms: dict[str, list[str]], rng: random.Random) -> tuple[Novel, int]:
    """Replace lemmas by surface forms and add punctuation; count lexicon lemmas."""
    out = []
    matched = 0
    for lemma in novel.lemmas:
        variants = forms.get(lemma)
        token = lemma
        if variants is not None:
            matched += 1
            if rng.random() < 0.6:
                token = rng.choice(variants)
        r = rng.random()
        if r < 0.12:
            token += rng.choice(_TRAILING)
        elif r < 0.15:
            left, right = rng.choice(_QUOTES)
            token = left + token + right
        elif r < 0.16:
            out.append("—")  # a token of punctuation alone, which the tokenizer drops
        out.append(token)
    return Novel(novel.metadata, tuple(out)), matched


def build(workload_dir: Path, seed: int, n_novels: int, tokens_per_novel: int,
          nrc: bool, repeats: int, after_each=lambda: None) -> Inputs:
    """Write the workload's corpus ``repeats`` times; time the program's own steps.

    Each repeat times ``generate_synthetic_corpus``, ``write_corpus`` and
    ``write_lexicon`` (what ``plotarc synth`` costs a user), then calls
    ``after_each``. The benchmark's own additions for ``ingest`` (lexicon
    rows, lemma map, surface text) are made once, outside the timed span,
    since they are not program work.
    """
    rng = random.Random(seed)
    lexicon = nrc_sized_lexicon(rng) if nrc else demo_lexicon()
    forms = lemma_map_for(lexicon, rng) if nrc else None
    corpus_dir = workload_dir / "corpus"
    lexicon_path = workload_dir / "lexicon.tsv"
    setup_times = []
    on_disk = matched = None
    for _ in range(repeats):
        gc.collect()  # start each repeat from a similar heap, as a fresh process would
        t0 = time.perf_counter()
        corpus = generate_synthetic_corpus(seed, n_novels, tokens_per_novel, PLANTED_ENDING_LEN, lexicon)
        t1 = time.perf_counter()
        if forms is None:
            on_disk = corpus
        elif on_disk is None:  # the surface text is the same for every repeat
            on_disk, matched = _surface_corpus(corpus, forms, random.Random(seed + 1))
        del corpus
        t2 = time.perf_counter()
        write_corpus(on_disk, corpus_dir)
        with open(lexicon_path, "w", encoding="utf-8") as fh:
            write_lexicon(lexicon, fh)
        setup_times.append((t1 - t0) + (time.perf_counter() - t2))
        after_each()

    lemma_map_path = None
    if forms is not None:
        lemma_map_path = workload_dir / "lemma_map.tsv"
        lemma_map_path.write_text(
            "".join(f"{s}\t{lemma}\n" for lemma, variants in forms.items() for s in variants),
            encoding="utf-8",
        )
    return Inputs(
        corpus_dir=str(corpus_dir),
        metadata=str(corpus_dir / "metadata.tsv"),
        lexicon=str(lexicon_path),
        lemma_map=str(lemma_map_path) if lemma_map_path else None,
        ids=tuple(n.metadata.id for n in on_disk.novels),
        matched_tokens=matched,
        setup_times=tuple(setup_times),
    )


def _surface_corpus(corpus: Corpus, forms: dict[str, list[str]],
                    rng: random.Random) -> tuple[Corpus, int]:
    novels = []
    matched = 0
    for novel in corpus.novels:
        surfaced, m = _surface_novel(novel, forms, rng)
        novels.append(surfaced)
        matched += m
    return Corpus(tuple(novels)), matched


def _reference_wall() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).with_name("reference.py"))],
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    workdir, seed, n_novels, tokens_per_novel, nrc, repeats = argv
    import plotarc.cli  # noqa: F401  (byte-compiles the package before any command is timed)

    repeats = int(repeats)
    refs = [_reference_wall()] if repeats > 1 else []
    after_each = (lambda: refs.append(_reference_wall())) if repeats > 1 else (lambda: None)
    inputs = build(Path(workdir), int(seed), int(n_novels), int(tokens_per_novel), nrc == "1",
                   repeats, after_each)
    with open(Path(workdir) / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump({"inputs": dataclasses.asdict(inputs), "reference_s": refs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
