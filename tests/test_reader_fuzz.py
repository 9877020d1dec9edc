"""Fuzz the lexicon, metadata and lemma-map readers through the CLI.

Whatever a user file holds, ``plotarc run baselines`` must exit 0 or 2 and
never raise: every reader error is a message, not a traceback.
"""

import unicodedata

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plotarc.cli import main
from plotarc.corpus import METADATA_COLUMNS, demo_lexicon, tokenize
from plotarc.lexicon import FILE_DIMENSIONS, write_lexicon

FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

LEXICON_HEADER = "lemma\t" + "\t".join(FILE_DIMENSIONS)
METADATA_HEADER = "\t".join(METADATA_COLUMNS)

# Any text, weighted toward the characters the readers split and strip on.
text = st.text(st.sampled_from("\t\r\n\x00 ä") | st.characters(codec="utf-8"), max_size=30)
# A cell that neither splits its row nor ends its line.
cell = st.text(st.characters(codec="utf-8", exclude_characters="\t\r\n"), max_size=20)
eol = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def row(draw, cells):
    """Tab-joined cells; in about half the rows one of them is arbitrary text."""
    values = [draw(cell) for cell in cells]
    i = draw(st.integers(0, 2 * len(values)))
    if i < len(values):
        values[i] = draw(text)
    return "\t".join(values)


def table(header: str, *cells):
    """Whole-file text: anything at all, or rows of ``cells`` under an optional header."""
    rows = st.lists(row(cells), max_size=6)
    with_header = rows.map(lambda lines: [header, *lines])
    return st.builds(lambda lines, end: end.join(lines), with_header | rows, eol) | text


binary = st.sampled_from(["0", "1"])
lexicon_files = table(LEXICON_HEADER, cell, *[binary] * len(FILE_DIMENSIONS))
years = (
    st.integers(1, 2100).map(str)
    | st.integers(-(10**30), 10**30).map(str)
    | st.sampled_from(["", "1e3", "0x7d0", "1_830", " 1830 ", "١٨٣٠", "9" * 5000])
)
metadata_files = table(
    METADATA_HEADER,
    st.sampled_from(["n1", "n2", "n3", "n4"]),
    cell,
    cell,
    years,
    st.sampled_from(["happy", "unhappy"]),
)
lemma_map_files = table("", cell, cell)


@pytest.fixture
def corpus(toy_corpus_dir):
    root, metadata = toy_corpus_dir
    lexicon = root / "lexicon.tsv"
    with open(lexicon, "w", encoding="utf-8") as fh:
        write_lexicon(demo_lexicon(), fh)
    return {"--corpus": root, "--metadata": metadata, "--lexicon": lexicon, "--out": root / "out"}


VALID = {
    "--lexicon": LEXICON_HEADER + "\r\nfreude\t0\t1\t0\t0\t1\t0\t1\t0\t1\t0\r\n",
    "--metadata": METADATA_HEADER + "\nn1\tT\tA\t1820\thappy\nn2\tT\tA\t1840\tunhappy\n",
    "--lemma-map": "Freude\tfreude\rTod\ttod\r",
}


def run_with(corpus, flag, content):
    """Exit status of ``run baselines`` with ``content`` as the file behind ``flag``."""
    fuzzed = corpus["--corpus"] / "fuzzed.tsv"
    fuzzed.write_text(content, encoding="utf-8", newline="")
    argv = ["run", "baselines", "--segments", "2"]
    for name, value in {**corpus, flag: fuzzed}.items():
        argv += [name, str(value)]
    return main(argv)


@pytest.mark.parametrize("flag", sorted(VALID))
def test_valid_files_run(corpus, flag):
    # Keeps the fuzz tests honest: the fixture corpus itself runs cleanly.
    assert run_with(corpus, flag, VALID[flag]) == 0


@FUZZ
@given(content=lexicon_files)
@example(content="")
@example(content=LEXICON_HEADER)
@example(content="a\x00\t1\t0\t0\t0\t0\t0\t0\t0\t0\t0\r")
def test_lexicon_reader(corpus, content):
    assert run_with(corpus, "--lexicon", content) in (0, 2)


@FUZZ
@given(content=metadata_files)
@example(content="")
@example(content=METADATA_HEADER + "\r\n")
@example(content=METADATA_HEADER + "\nn1\tT\tA\t" + "9" * 5000 + "\thappy\n")
@example(content=METADATA_HEADER + "\nn1\tT\tA\t0x7d0\thappy\n")
@example(content=METADATA_HEADER + "\nn1\tT\tA\t١٨٣٠\thappy\nn2\tT\tA\t1_840\tunhappy\n")
@example(content=METADATA_HEADER + "\nn1\x00\tT\tA\t1820\thappy\n")
@example(content=METADATA_HEADER + "\n../x\tT\tA\t1820\thappy\n")
@example(content=METADATA_HEADER + "\na/b\tT\tA\t1820\thappy\n")
def test_metadata_reader(corpus, content):
    assert run_with(corpus, "--metadata", content) in (0, 2)


@FUZZ
@given(content=lemma_map_files)
@example(content="")
@example(content="\x00\t\x00\r\n")
def test_lemma_map_reader(corpus, content):
    assert run_with(corpus, "--lemma-map", content) in (0, 2)


@FUZZ
@given(surface=cell.filter(bool))
@example(surface="Hause ")
@example(surface="Glück,")
@example(surface="„Glück“")
@example(surface="Zu\u2028Hause")
@example(surface="geht's")
def test_lemma_map_accepts_exactly_the_surface_forms_a_token_can_equal(corpus, surface):
    # The blank first line keeps a leading U+FEFF from being read as a byte-order mark.
    form = unicodedata.normalize("NFC", surface)
    status = run_with(corpus, "--lemma-map", f"\n{surface}\tlemma\n")
    assert status == (0 if tokenize(form) == [form] else 2)
