import pytest

from plotarc.corpus import Corpus, _Interner, demo_lexicon
from plotarc.experiments import prepare_inputs
from plotarc.lexicon import parse_lexicon

# The three classic example entries: a strongly negative verb, a strongly
# positive adjective, and a neutral surprise-only noun. Canonical file
# column order: anger anticipation disgust fear joy negative positive
# sadness surprise trust.
TABLE1_TSV = (
    "verabscheuen\t1\t0\t1\t1\t0\t1\t0\t0\t0\t0\n"
    "bewundernswert\t0\t0\t0\t0\t1\t0\t1\t0\t0\t1\n"
    "Zufall\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0\n"
)


def interned(novels) -> Corpus:
    """A corpus of these novels, whose lemmas may be any sequences of strings,
    interned into one vocabulary as ``load_corpus`` interns tokens."""
    interner = _Interner({})
    return interner.corpus([(novel.metadata, interner.ids(novel.lemmas)) for novel in novels])


def profile_of(novel, lexicon, n_segments=75):
    """One novel's segment profile, computed as part of a one-novel corpus."""
    return prepare_inputs(interned([novel]), lexicon, n_segments).profiles[0]


@pytest.fixture
def table1_lexicon():
    return parse_lexicon(TABLE1_TSV)


@pytest.fixture(scope="session")
def toy_lexicon():
    return demo_lexicon()


@pytest.fixture
def toy_corpus_dir(tmp_path):
    """Four tiny novels on disk with a metadata table (2 happy / 2 unhappy)."""
    texts = {
        "n1": "Es war ein Zufall . Die Freude war wunderbar und herrlich am Ende",
        "n2": "Der Tod kam schrecklich und furchtbar , alles war elend und bitter",
        "n3": "Liebe und Hoffnung , Friede und Segen , ein Jubel zum Schluss hier",
        "n4": "Grauen und Qual , die Verzweiflung blieb finster bis zum bitteren Ende",
    }
    labels = {"n1": "happy", "n2": "unhappy", "n3": "happy", "n4": "unhappy"}
    years = {"n1": 1820, "n2": 1840, "n3": 1860, "n4": 1890}
    for novel_id, text in texts.items():
        (tmp_path / f"{novel_id}.txt").write_text(text, encoding="utf-8")
    rows = ["id\ttitle\tauthor\tyear\tlabel"]
    for novel_id in texts:
        rows.append(f"{novel_id}\tTitle {novel_id}\tAuthor\t{years[novel_id]}\t{labels[novel_id]}")
    metadata = tmp_path / "metadata.tsv"
    metadata.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return tmp_path, metadata
