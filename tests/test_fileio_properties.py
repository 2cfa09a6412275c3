"""Property tests for the edge-list format: parse inverts format under
comments, blank lines, tabs and CRLF, the vectorised parser agrees with
the line-by-line reference parser on one-token mutations, the library's
own files take the byte kernel, and texts cut into blocks of a few
bytes read as one block reads them."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph, fileio
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


@given(digraphs(max_n=30))
def test_the_librarys_own_files_take_the_kernel(D):
    body = format_digraph(D).split("\n", 1)[1]
    rows = fileio._plain_rows(body.encode())
    if D.arc_count:
        assert rows.tolist() == np.argwhere(D.bool_matrix()).tolist()
    else:
        assert body == ""


@given(st.data())
def test_zero_padded_labels_and_duplicate_arcs_take_the_kernel(data):
    D = data.draw(digraphs())
    lines = []
    for u, v in np.argwhere(D.bool_matrix()).tolist():
        for _ in range(data.draw(st.integers(1, 3))):
            lines.append(" ".join(str(x).zfill(data.draw(st.integers(1, 18))) for x in (u, v)))
    body = "".join(line + "\n" for line in lines)
    if lines:
        assert fileio._plain_rows(body.encode()) is not None
    assert parse_digraph(f"{D.n} {len(lines)}\n{body}") == D


EOLS = ("\n",) * 6 + ("\r\n", "\r", "\x0c", "\x85", "\x1c")
LATE_TOKENS = ("-1", "9" * 19, "9" * 23, "+1", "0" * 19, "x", "1.5", "\u0662")


@st.composite
def mixed_text(draw, D):
    """format_digraph(D) with arc lines repeated, zero-padded, spaced or
    commented, noise lines between them, line endings mostly '\n', and
    perhaps one token replaced, added or dropped, or a line made a loop,
    with or without a trailing space."""
    lines = []
    for line in format_digraph(D).splitlines()[1:]:
        for _ in range(draw(st.integers(1, 2))):
            u, v = line.split()
            if draw(st.booleans()):
                u, v = u.zfill(draw(st.integers(1, 20))), v.zfill(draw(st.integers(1, 20)))
            lines.append(u + draw(st.sampled_from((" ",) * 4 + SEPARATORS)) + v)
            if draw(st.integers(0, 5)) == 0:
                lines[-1] += draw(st.sampled_from(TAILS))
            if draw(st.integers(0, 7)) == 0:
                lines.append(draw(st.sampled_from(NOISE_LINES)))
    m = sum(1 for line in lines if line.split("#")[0].strip())
    lines.insert(0, f"{D.n} {m}")
    if len(lines) > 1 and draw(st.integers(0, 2)):
        k = draw(st.integers(1, len(lines) - 1))
        tokens = lines[k].split("#")[0].split() or ["0"]
        kind = draw(st.sampled_from(("replace", "extra", "missing", "loop")))
        if kind == "replace":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from((str(D.n),) + LATE_TOKENS)
            )
        elif kind == "extra":
            tokens.append(draw(st.sampled_from(("0",) + LATE_TOKENS)))
        elif kind == "missing":
            tokens.pop()
        else:
            tokens = [tokens[0], tokens[0]]
        lines[k] = " ".join(tokens) + draw(st.sampled_from(("", " ")))
    ends = [draw(st.sampled_from(EOLS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.integers(0, 4)) else text.rstrip("\n")


def outcome_and_message(text):
    try:
        return parse_digraph(text)
    except DilinkError as e:
        return type(e), str(e)


@given(st.data())
def test_texts_cut_into_small_blocks_read_as_one_block(data):
    """Blocks of a few bytes put plain blocks between blocks with
    other layouts and a refused token in any block; the digraph, or the
    exception class and message, is what one block gives, and agrees
    with the reference parser."""
    D = data.draw(digraphs())
    text = data.draw(mixed_text(D))
    whole = outcome_and_message(text)
    with mock.patch.object(fileio, "_BLOCK", data.draw(st.integers(1, 48))):
        assert outcome_and_message(text) == whole
    expected = outcome(reference_parse_digraph, text)
    assert (whole if isinstance(whole, Digraph) else whole[0]) == expected
