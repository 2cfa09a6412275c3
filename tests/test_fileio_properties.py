"""Property tests for the edge-list format: parse inverts format under
comments, blank lines, tabs and CRLF, and the vectorised parser agrees
with the line-by-line reference parser on one-token mutations."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph
from dilink.errors import DilinkError
from dilink.fileio import format_digraph, parse_digraph

from helpers import reference_parse_digraph

SEPARATORS = (" ", "\t", "  ", " \t ", "\u2003")
NOISE_LINES = ("", "   ", "# note", "\t# 1 2 3")
TAILS = ("", " ", "\t", " # c", "#0 1")
BAD_TOKENS = ("x", "a1", "1.5", "1e3", "0x1", "1_0", "٢", "+1", "-1", "99999999999999999999999")


@st.composite
def digraphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and bits[u * n + v]])


@st.composite
def noisy_text(draw, D):
    """format_digraph(D) with comments, blank lines, mixed separators and
    a random line ending."""
    out = []
    for line in format_digraph(D).splitlines():
        out.extend(draw(st.lists(st.sampled_from(NOISE_LINES), max_size=2)))
        sep = draw(st.sampled_from(SEPARATORS))
        pad = draw(st.sampled_from(("", " ", "\t")))
        out.append(pad + sep.join(line.split()) + draw(st.sampled_from(TAILS)))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(out) + draw(st.sampled_from(("", eol)))


def outcome(parse, text):
    try:
        return parse(text)
    except DilinkError as e:
        return type(e)


@given(st.data())
def test_parse_inverts_format(data):
    D = data.draw(digraphs())
    text = data.draw(noisy_text(D))
    assert parse_digraph(text) == D
    assert reference_parse_digraph(text) == D


@given(st.data())
def test_parser_agrees_with_the_reference_on_one_token_mutations(data):
    D = data.draw(digraphs())
    lines = format_digraph(D).splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[k].split()
    kind = data.draw(st.sampled_from(("extra", "missing", "replace", "loop", "map")))
    if kind == "extra":
        at = data.draw(st.integers(0, len(tokens)))
        tokens.insert(at, data.draw(st.sampled_from(("0", "7") + BAD_TOKENS)))
    elif kind == "missing":
        del tokens[data.draw(st.integers(0, len(tokens) - 1))]
    elif kind == "replace":
        at = data.draw(st.integers(0, len(tokens) - 1))
        tokens[at] = data.draw(st.sampled_from((str(D.n), str(D.n + 3)) + BAD_TOKENS))
    elif kind == "loop":
        tokens = [tokens[0], tokens[0]]
    lines[k] = " ".join(tokens)
    if kind == "map":
        lines.insert(k + 1, "map 0 2")
    text = "\n".join(lines) + "\n"
    assert outcome(parse_digraph, text) == outcome(reference_parse_digraph, text)
