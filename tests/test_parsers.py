"""Fuzz the four text parsers: any text gives an object or `ParseError`.

Three kinds of input: raw characters, shuffles of the formats' own
tokens, and one-line edits of valid files.  Any other exception, such as
a `KeyError`, `ValueError` or `IndexError`, fails the test.
"""

import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from oneplanar.embedding import parse_drawing, write_drawing
from oneplanar.errors import ParseError
from oneplanar.generators import family_delta5, parse_witness, random_oneplanar, write_witness
from oneplanar.graph import parse_graph, write_graph
from oneplanar.matcher import maximum_matching, parse_matching, write_matching

_DRAWING = random_oneplanar(5, 1, 1)
_INSTANCE = family_delta5(1)
# (parser, a valid text it accepts)
PARSERS = {
    "graph": (parse_graph, write_graph(_DRAWING.graph)),
    "1pg": (parse_drawing, write_drawing(_DRAWING)),
    "witness": (
        parse_witness,
        write_witness(
            _INSTANCE.witness, _INSTANCE.predicted_deficiency, _INSTANCE.predicted_matching_upper
        ),
    ),
    "matching": (parse_matching, write_matching(maximum_matching(_DRAWING.graph))),
}

KEYWORDS = [
    "graph", "e", "1pg", "pv", "real", "dummy", "seg", "rot", "S:", "deficiency:",
    "matching_upper:", "matching", "m", ":", ".", "-", "_", "0.0", "1.1", "2.0", "0.2",
    "-1.0", "3.", ".1", "1e3", "+1", "\n", "\n", "\n", "\t", "\r",
]
TOKENS = st.one_of(st.sampled_from(KEYWORDS), st.integers(-3, 30).map(str))

# `parse_graph` allocates one adjacency list per vertex of a valid header
# (up to `MAX_GRAPH_VERTICES`), so numbers stay below five digits.
_LONG_NUMBER = re.compile(r"[\d_]{5,}")

# the example count comes from the hypothesis profile (see conftest.py)
SETTINGS = settings(deadline=None, database=None)


def parses_or_rejects(parse, text: str) -> None:
    assume(not _LONG_NUMBER.search(text))
    try:
        parse(text)
    except ParseError:
        pass


@pytest.mark.parametrize("fmt", PARSERS)
@SETTINGS
@given(text=st.text(max_size=120))
def test_raw_text_parses_or_raises_parse_error(fmt, text):
    parses_or_rejects(PARSERS[fmt][0], text)


@pytest.mark.parametrize("fmt", PARSERS)
@SETTINGS
@given(tokens=st.lists(TOKENS, max_size=60))
def test_format_tokens_parse_or_raise_parse_error(fmt, tokens):
    parses_or_rejects(PARSERS[fmt][0], " ".join(tokens))


@pytest.mark.parametrize("fmt", PARSERS)
@SETTINGS
@given(data=st.data())
def test_edited_valid_text_parses_or_raises_parse_error(fmt, data):
    parse, text = PARSERS[fmt]
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(["delete", "duplicate", "token", "append"]))
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "append":
        lines[i] += " " + data.draw(TOKENS)
    else:
        parts = lines[i].split(" ")
        j = data.draw(st.integers(0, len(parts) - 1))
        parts[j] = data.draw(TOKENS)
        lines[i] = " ".join(parts)
    parses_or_rejects(parse, "\n".join(lines))
