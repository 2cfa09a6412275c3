import io
import json
import os
import sys
import threading

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
from dilink import fileio
from dilink.errors import BadParameter, LabelOutOfRange, LoopArc
from dilink.pipeline import PipelineConfig

from helpers import reference_parse_digraph


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


def test_the_header_search_breaks_lines_where_splitlines_does():
    for c in map(chr, range(sys.maxunicode + 1)):
        assert fileio._LINE_BREAK.split(f"a{c}b") == f"a{c}b".splitlines(), repr(c)
    assert fileio._LINE_BREAK.split("a\r\nb") == ["a", "b"]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Blocks of 48 bytes, and the list of blocks the kernel read."""
    monkeypatch.setattr(fileio, "_BLOCK", 48)
    read = []

    def plain_rows(block):
        rows = kernel(block)
        if rows is not None:
            read.append(block)
        return rows

    kernel = fileio._plain_rows
    monkeypatch.setattr(fileio, "_plain_rows", plain_rows)
    return read


def _plain(arcs):
    return "".join(f"{u} {v}\n" for u, v in arcs)


@pytest.mark.parametrize(
    "noise, noise_arcs",
    [("# note\n", 0), ("\n", 0), ("1 2\r\n", 1), ("3\t4\n", 1), ("+5 6\n", 1), ("\u2003 7 8\n", 1)],
)
def test_plain_blocks_between_other_blocks_read_as_the_reference(kernel_calls, noise, noise_arcs):
    """Plain blocks sit between blocks with comments, blank lines, CRLF,
    tabs, signs and non-ASCII text; the kernel reads the plain ones and the
    digraph is the reference parser's."""
    D = gen_random_digraph(30, 0.5, 3)
    arcs = sorted(D.arcs)
    chunks = [arcs[i : i + 40] for i in range(0, len(arcs), 40)]
    body = noise.join(_plain(c) for c in chunks)
    m = len(arcs) + noise_arcs * (len(chunks) - 1)
    text = f"# header next\n30 {m}\n{body}"
    assert parse_digraph(text) == reference_parse_digraph(text)
    assert len(kernel_calls) >= len(chunks)


@pytest.mark.parametrize(
    "line, kind, message",
    [
        ("-1 2", LabelOutOfRange, r"arc \(-1, 2\) outside 0..9"),
        ("+1 2", None, None),
        ("1234567890123456789 2", LabelOutOfRange, r"arc \(1234567890123456789, 2\) outside"),
        ("0 " + "9" * 23, LabelOutOfRange, f"arc line '0 {'9' * 23}' has a label outside 0..9"),
        ("10 2", LabelOutOfRange, r"arc \(10, 2\) outside 0..9"),
        ("3 3", LoopArc, r"loop arc \(3, 3\)"),
        ("0 1 2", BadParameter, "arc line must be 'u v', got '0 1 2'"),
        ("0 ", BadParameter, "arc line must be 'u v', got '0'"),
    ],
)
def test_a_bad_token_in_a_later_plain_block_is_named(kernel_calls, line, kind, message):
    """A token the kernel refuses, in a block after plain ones, raises the
    reference's class with the message naming that line or arc."""
    arcs = [(u, v) for u in range(10) for v in range(10) if u != v][:40]
    text = f"10 41\n{_plain(arcs[:30])}{line}\n{_plain(arcs[30:])}"
    if kind is None:
        assert parse_digraph(text) == reference_parse_digraph(text)
    else:
        with pytest.raises(kind, match=message):
            parse_digraph(text)
        with pytest.raises(kind):
            reference_parse_digraph(text)
    assert kernel_calls


def test_zero_padded_labels_and_duplicate_arcs_take_the_kernel(kernel_calls):
    text = "4 6\n" + "0001 02\n" * 3 + "3 000000000000000000\n" + "2 1\n2 1\n"
    assert parse_digraph(text).arcs == {(1, 2), (3, 0), (2, 1)}
    assert b"".join(kernel_calls) == text[4:].encode()


def test_the_kernel_reads_exactly_the_plain_layout():
    assert fileio._plain_rows(b"7 80\n012 3\n").tolist() == [[7, 80], [12, 3]]
    assert fileio._plain_rows(b"9" * 18 + b" 0\n").tolist() == [[10**18 - 1, 0]]
    refused = (
        "", "1 2", "1 2\n\n", "\n1 2\n", " 1 2\n", "1  2\n", "1 \n", " 2\n", " \n", "1 2\n3 \n",
        "1\n2\n", "1 2 3\n", "1 2\r\n", "1\t2\n", "+1 2\n", "1 -2\n", "1 2 #\n", "1 \u0662\n",
        "1 x\n", "9" * 19 + " 0\n",
    )
    for block in refused:
        assert fileio._plain_rows(block.encode()) is None, repr(block)


def test_the_reader_peak_stays_near_the_arc_array(tmp_path):
    """read_digraph keeps one (m, 2) int64 array, sized from the header's
    m and capped by the file size, not a list of per-block arrays: its
    traced peak stays within 1 MiB of that array and the bool matrix."""
    import tracemalloc

    D = gen_random_digraph(600, 0.6, 1)
    f = tmp_path / "d.txt"
    f.write_text(format_digraph(D))
    tracemalloc.start()
    try:
        assert read_digraph(str(f)) == D
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * D.arc_count + D.n**2 + 2**20


@pytest.mark.parametrize(
    "bad", [b"\xff", b"\xe2\x28\xa1", b"\xed\xa0\x80", b"\xf0\x9f\x98"], ids=["ff", "e228", "surrogate", "cut"]
)
@pytest.mark.parametrize("at", [9, 65535, 100001, None], ids=["early", "block-end", "late", "eof"])
def test_read_digraph_names_the_first_byte_that_is_not_utf8(tmp_path, bad, at):
    """Not UTF-8 is BadParameter naming the offset str.decode gives, however
    far into the file, astride a block end or cut off at its end."""
    data = format_digraph(gen_random_digraph(150, 0.6, 2)).replace("\n", " #\u00e9\n").encode()
    data = data + bad if at is None else data[:at] + bad + data[at:]
    f = tmp_path / "d.txt"
    f.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as e:
        data.decode("utf-8")
    with pytest.raises(BadParameter, match=f"is not UTF-8: undecodable byte at offset {e.value.start}$"):
        read_digraph(str(f))
    with pytest.raises(BadParameter, match=f"is not UTF-8: undecodable byte at offset {e.value.start}$"):
        fileio.read_pattern(str(f))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_read_digraph_from_a_pipe_whose_size_reads_zero(tmp_path):
    """A pipe's size reads 0, so the arc array starts from one row and
    grows as blocks arrive.  A pipe can be read only once, so a bad line
    and a byte that is not UTF-8 are named from that one read."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def through_pipe(data):
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            return read_digraph(str(fifo))
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    D = gen_random_digraph(150, 0.6, 4)
    assert through_pipe(format_digraph(D).encode()) == D
    with pytest.raises(BadParameter, match="^non-integer value in '1 x'$"):
        through_pipe(b"3 2\n0 1\n1 x\n")
    with pytest.raises(BadParameter, match="is not UTF-8: undecodable byte at offset 14$"):
        through_pipe(b"3 2\n0 1\n1 2 # \xff\n")


def test_of_a_bad_token_and_a_bad_byte_the_earlier_block_is_reported(kernel_calls, tmp_path):
    """The input is read once, in blocks of 48 bytes here: of a bad token
    and a byte that is not UTF-8, the one in the earlier block is named,
    and the byte when both share a block."""
    f = tmp_path / "d.txt"
    pad = b"0 1\n" * 20  # the lines either side of it lie in different blocks
    for data, error in [
        (b"3 21\n0 x\n" + pad + b"0 1 # \xff\n", "non-integer value in '0 x'$"),
        (b"3 21\n0 1 # \xff\n" + pad + b"0 x\n", "undecodable byte at offset 11$"),
        (b"3 21\n" + pad + b"0 x # \xff\n", f"undecodable byte at offset {5 + len(pad) + 6}$"),
    ]:
        f.write_bytes(data)
        with pytest.raises(BadParameter, match=error):
            read_digraph(str(f))


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
    # no UTF-8 file holds a lone surrogate, so no string may, even in a comment
    with pytest.raises(BadParameter, match="^'<string>' is not UTF-8: undecodable byte at offset 10$"):
        parse_digraph("3 1\n0 1 # \ud800\n")


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


def test_parse_pattern_refuses_a_repeated_map_line():
    # two images for one vertex: keeping either would drop the other silently
    with pytest.raises(BadParameter, match="^map line 'map 0 7' repeats pattern vertex 0$"):
        parse_pattern("2 1\n0 1\nmap 0 5\nmap 0 7\n")
    # the same image twice is the branch map's injectivity check, not this one
    assert parse_pattern("2 1\n0 1\nmap 0 5\nmap 1 5\n")[1] == {0: 5, 1: 5}


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
