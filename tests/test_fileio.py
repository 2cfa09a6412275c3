import io
import json

import pytest

from dilink import (
    ExpansionParams,
    build_type1_absorber,
    gen_random_digraph,
    nh_linked_embed,
    single_arc_pattern,
)
from dilink.fileio import (
    absorber_to_json,
    dump_json,
    format_digraph,
    ladder_to_json,
    parse_digraph,
    parse_pattern,
    read_digraph,
    subdivision_to_json,
)
from dilink.errors import BadParameter, LabelOutOfRange
from dilink.pipeline import PipelineConfig


def test_digraph_text_round_trip(tmp_path):
    D = gen_random_digraph(40, 0.3, 1)
    text = format_digraph(D)
    assert parse_digraph(text) == D
    f = tmp_path / "d.txt"
    f.write_text(text)
    assert read_digraph(str(f)) == D


@pytest.mark.parametrize("before_end", [0, 2], ids=["break-at-end", "line-astride"])
@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0c", "\x85"])
def test_read_digraph_splits_lines_as_splitlines_across_block_ends(tmp_path, sep, before_end):
    """read_digraph reads the file in 64 KiB blocks; a line astride two
    blocks, or a line break at a block's end ('\r\n' astride two blocks
    included), still splits as str.splitlines splits the whole text."""
    D = gen_random_digraph(150, 0.6, 2)
    header, *arcs = format_digraph(D).splitlines()
    at = 65535 - before_end  # where the line break goes
    pad = at - sep.join([header, *arcs, ""]).rindex(sep[0], 0, at + 1)
    text = sep.join([header + " " * pad, *arcs, ""])  # spaces after the header
    assert text[at : at + len(sep)] == sep
    f = tmp_path / "d.txt"
    f.write_text(text, encoding="utf-8", newline="")
    assert read_digraph(str(f)) == D


def test_parse_digraph_comments_and_blank_lines():
    text = """
    # a tiny example
    3 2   # header

    0 1
    # middle comment
    1 2
    """
    D = parse_digraph(text)
    assert D.n == 3 and D.arcs == frozenset({(0, 1), (1, 2)})


def test_parse_digraph_diagnostics():
    with pytest.raises(BadParameter, match="empty"):
        parse_digraph("# nothing here\n")
    with pytest.raises(BadParameter, match="header"):
        parse_digraph("3\n0 1\n")
    with pytest.raises(BadParameter, match="non-integer"):
        parse_digraph("three 2\n0 1\n1 2\n")
    with pytest.raises(BadParameter, match="promises"):
        parse_digraph("3 5\n0 1\n1 2\n")
    with pytest.raises(BadParameter, match="arc line"):
        parse_digraph("3 1\n0 1 2\n")
    with pytest.raises(BadParameter, match="arc line"):  # one column throughout
        parse_digraph("3 1\n0\n")
    with pytest.raises(BadParameter, match="promises 0 arcs, file has 1"):
        parse_digraph("3 0\n0 1\n")
    with pytest.raises(BadParameter, match="too large"):
        parse_digraph("99999999999999999999 0\n")


def test_parse_digraph_token_grammar():
    """An integer token is an optional sign and ASCII digits, and an arc
    label beyond int64 is out of range, named by its line."""
    assert parse_digraph("+3 1\n+0 02\n").arcs == {(0, 2)}
    assert parse_digraph("3 1\r\n0\u20032 # em space\r\n").arcs == {(0, 2)}
    for bad in ("1_0 2", "\u0662 1", "0x1 2", "1e0 2", "- 1", "+-1 2"):
        with pytest.raises(BadParameter, match="non-integer"):
            parse_digraph(f"12 1\n{bad}\n")
    with pytest.raises(BadParameter, match="non-integer"):
        parse_digraph("1_2 0\n")
    with pytest.raises(LabelOutOfRange, match="'0 99999999999999999999999'"):
        parse_digraph("3 1\n0 99999999999999999999999\n")
    with pytest.raises(LabelOutOfRange, match="'-9223372036854775809 1'"):
        parse_digraph("3 2\n0 1\n-9223372036854775809 1\n")
    long = "9" * 5000  # past int()'s default limit of 4300 digits
    with pytest.raises(LabelOutOfRange):
        parse_digraph(f"3 1\n0 {long}\n")
    with pytest.raises(BadParameter, match="too long"):
        parse_digraph(f"{long} 0\n")
    assert parse_digraph(f"3 1\n{'0' * 5000}1 2\n").arcs == {(1, 2)}
    # the first bad line is named, past a zero-padded label int() cannot read
    with pytest.raises(BadParameter, match="non-integer value in '0 x'"):
        parse_digraph(f"3 2\n{'0' * 5000}1 2\n0 x\n")
    with pytest.raises(LabelOutOfRange, match="'0 -0009223372036854775809'"):
        parse_digraph("3 2\n0 1\n0 -0009223372036854775809\n")
    assert parse_digraph("3 1\n-000 +0002\n").arcs == {(0, 2)}


def test_parse_pattern_with_branch_map():
    text = "3 3\n0 1\n1 2\n2 0\nmap 0 10\nmap 1 20\nmap 2 30\n"
    H, branch = parse_pattern(text)
    assert H.h == 3
    assert H.arc_order == ((0, 1), (1, 2), (2, 0))
    assert branch == {0: 10, 1: 20, 2: 30}
    # map lines are optional and may be partial
    H2, b2 = parse_pattern("2 1\n0 1\nmap 0 7\n")
    assert b2 == {0: 7}
    with pytest.raises(BadParameter, match="map line"):
        parse_pattern("2 1\n0 1\nmap 0\n")


def test_subdivision_json_shape():
    D = gen_random_digraph(300, 0.7, 0)
    cfg = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3, seed=0)
    sub = nh_linked_embed(D, single_arc_pattern(), {0: 5, 1: 17}, [150], cfg)
    obj = subdivision_to_json(sub)
    assert obj["branch"] == {"0": 5, "1": 17}
    assert obj["lengths"] == [150]
    assert obj["order"] == 151
    assert len(obj["paths"]) == 1 and len(obj["paths"][0]) == 151
    json.dumps(obj)  # must be serializable as-is


def test_absorber_and_ladder_json_shape():
    D = gen_random_digraph(200, 0.7, 0)
    p = ExpansionParams("3/4", "3/4", "1/2")
    A = build_type1_absorber(D, single_arc_pattern(), {0: 0, 1: 1}, p, d=3, seed=0)
    obj = absorber_to_json(A)
    assert obj["type"] == 1
    assert obj["d"] == 3
    assert len(obj["K"]) == len(A.pairs)
    assert len(obj["ladders"]) == len(A.ladders)
    assert len(obj["hosts"]) == 1
    lj = ladder_to_json(A.ladders[0])
    assert lj["k"] == A.ladders[0].k
    assert lj["lower"] == list(A.ladders[0].lower)
    buf = io.StringIO()
    dump_json(obj, buf)
    assert json.loads(buf.getvalue()) == json.loads(json.dumps(obj))
    assert buf.getvalue().endswith("\n")
