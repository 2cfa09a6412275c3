import json
import os
import re
import threading

import pytest

from dilink import (
    EXPANSION_EXACT_CAP,
    complete_digraph,
    cover_size_formula,
    directed_cycle,
    gen_random_digraph,
    verify_d_cover,
)
from dilink import cli, errors
from dilink.cli import main
from dilink.fileio import format_digraph, parse_digraph


@pytest.fixture
def graph_file(tmp_path):
    def save(D, name="g.txt"):
        path = tmp_path / name
        path.write_text(format_digraph(D))
        return str(path)

    return save


@pytest.fixture
def pattern_file(tmp_path):
    def save(text, name="h.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return save


def test_gen_random_round_trips(capsys):
    assert main(["gen-random", "--n", "30", "--p", "0.4", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert parse_digraph(out) == gen_random_digraph(30, 0.4, 7)


def test_check_degrees_pass_and_fail(graph_file, capsys):
    assert main(["check-degrees", graph_file(complete_digraph(8))]) == 0
    out = capsys.readouterr().out
    assert "nash-williams: satisfied" in out
    assert "strongly-connected: True" in out

    assert main(["check-degrees", graph_file(directed_cycle(8))]) == 1
    out = capsys.readouterr().out
    assert "failed at index 1" in out


def test_check_degrees_optional_conditions(graph_file, capsys):
    path = graph_file(complete_digraph(10))
    assert main(["check-degrees", path, "--gamma", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "asymptotic-nash-williams(gamma=0.2): satisfied" in out
    assert "posa-type(gamma=0.2): satisfied" in out
    # a digon-carrying digraph skips the orientation-only condition
    assert main(["check-degrees", path, "--epsilon", "0.1"]) == 0
    assert "skipped (digon present)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "option",
    [["--gamma", "-1"], ["--gamma", "2"], ["--epsilon", "x"], ["--epsilon=-1"],
     ["--gamma", "0"], ["--epsilon", "2"], ["--gamma", "0.2", "--epsilon", "2"]],
    ids=["negative-gamma", "gamma-above-1", "unparsable-epsilon", "negative-epsilon",
         "zero-gamma", "epsilon-above-1", "good-gamma-bad-epsilon"],
)
def test_check_degrees_bad_parameter_is_exit_2(graph_file, capsys, option):
    # every margin is read before any report line is printed
    assert main(["check-degrees", graph_file(complete_digraph(10)), *option]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_gen_random_bad_order_is_exit_2(capsys):
    assert main(["gen-random", "--n", "-1", "--p", "0.5"]) == 2
    assert "error: vertex count" in capsys.readouterr().err


def test_check_degrees_reads_stdin(capsys, monkeypatch):
    import io

    text = format_digraph(complete_digraph(6))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    assert main(["check-degrees", "-"]) == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_a_bad_line_on_a_pipe_is_exit_2(tmp_path, capsys):
    """A pipe can be read only once: its bad line is named from that read."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"3 2\n0 1\n1 x\n",), daemon=True)
    writer.start()
    try:
        assert main(["check-degrees", str(fifo)]) == 2
    finally:
        writer.join(timeout=10)
    assert "error: non-integer value in '1 x'" in capsys.readouterr().err


def test_input_that_is_not_utf8_is_exit_2(tmp_path, pattern_file, capsys, monkeypatch):
    """A byte that is not UTF-8 in a graph file, on standard input or in a
    pattern file is a usage error naming its offset, not a traceback."""
    import io

    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"3 1\n0 1 \xff\n")
    assert main(["check-degrees", str(bad)]) == 2
    assert "is not UTF-8: undecodable byte at offset 8" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"3 1\n0 \xe2\x28 1\n")))
    assert main(["check-degrees", "-"]) == 2
    assert "'<stdin>' is not UTF-8: undecodable byte at offset 6" in capsys.readouterr().err
    g = pattern_file("3 0\n", "g.txt")
    h = tmp_path / "h.txt"
    h.write_bytes(b"2 1\n0 1\nmap 0 \x80\n")
    assert main(["find-subdivision", g, "--pattern", str(h), "--lengths", "1"]) == 2
    assert "is not UTF-8: undecodable byte at offset 14" in capsys.readouterr().err


def test_a_directory_or_unreadable_path_is_exit_2(tmp_path, capsys, monkeypatch):
    assert main(["check-degrees", str(tmp_path)]) == 2
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err

    def refuse(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "read_digraph", refuse)
    assert main(["check-degrees", "locked.txt"]) == 2
    assert "error: [Errno 13] Permission denied: 'locked.txt'" in capsys.readouterr().err


def test_certify_expander_verdicts(graph_file, capsys):
    k6 = graph_file(complete_digraph(6))
    assert main(["certify-expander", k6, "--nu", "1/6", "--tau", "1/6", "--exact"]) == 0
    assert "verdict: certified-exact" in capsys.readouterr().out

    c6 = graph_file(directed_cycle(6), "c.txt")
    assert main(["certify-expander", c6, "--nu", "1/6", "--tau", "1/6", "--exact"]) == 1
    out = capsys.readouterr().out
    assert "verdict: refuted" in out
    assert "counterexample:" in out

    assert main(["certify-expander", k6, "--nu", "1/6", "--tau", "1/6"]) == 0
    assert "verdict: no-counterexample-found" in capsys.readouterr().out


def test_certify_expander_cap_is_usage_error(graph_file, capsys):
    big = graph_file(gen_random_digraph(30, 0.5, 0))
    assert main(["certify-expander", big, "--nu", "1/6", "--tau", "1/6", "--exact"]) == 2
    assert "error:" in capsys.readouterr().err
    # the default cap is the library's: n = cap is decided, n = cap + 1 refused
    at_cap = graph_file(complete_digraph(EXPANSION_EXACT_CAP), "cap.txt")
    assert main(["certify-expander", at_cap, "--nu", "1/6", "--tau", "1/6", "--exact"]) == 0
    assert "verdict: certified-exact" in capsys.readouterr().out
    above = graph_file(complete_digraph(EXPANSION_EXACT_CAP + 1), "above.txt")
    assert main(["certify-expander", above, "--nu", "1/6", "--tau", "1/6", "--exact"]) == 2
    assert "error:" in capsys.readouterr().err


def test_build_cover_output(graph_file, capsys):
    path = graph_file(gen_random_digraph(100, 0.7, 0))
    assert main(["build-cover", path, "--d", "3", "--gamma", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    head = re.fullmatch(r"formula m = (\d+) \(grown: (\d+)\)", lines[0])
    assert head and int(head[1]) == cover_size_formula(100, "0.5", 3)
    pairs = [tuple(map(int, l.split())) for l in lines[1:]]
    assert len(pairs) == int(head[2]) and all(len(p) == 2 for p in pairs)
    D = gen_random_digraph(100, 0.7, 0)
    assert verify_d_cover(D, pairs, 3) and not verify_d_cover(D, pairs[:-1], 3)


def test_find_subdivision_json(graph_file, pattern_file, capsys):
    g = graph_file(gen_random_digraph(300, 0.7, 0))
    h = pattern_file("2 1\n0 1\nmap 0 5\nmap 1 17\n")
    rc = main(["find-subdivision", g, "--pattern", h, "--branches", "", "--lengths", "150"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["branch"] == {"0": 5, "1": 17}
    assert obj["lengths"] == [150]
    assert obj["order"] == 151


def test_find_subdivision_infeasible_is_exit_3(graph_file, pattern_file, capsys):
    g = graph_file(gen_random_digraph(300, 0.7, 0))
    h = pattern_file("2 1\n0 1\n")
    rc = main(["find-subdivision", g, "--pattern", h, "--lengths", "10"])
    assert rc == 3
    assert "feasibility" in capsys.readouterr().err


def test_tile_json(graph_file, pattern_file, capsys):
    g = graph_file(gen_random_digraph(200, 0.7, 2))
    h = pattern_file("2 1\n0 1\n")
    rc = main(["tile", g, "--pattern", h, "--orders", "80,120"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert [t["order"] for t in obj["tiles"]] == [80, 120]


def test_tile_bad_orders_is_usage_error(graph_file, pattern_file, capsys):
    g = graph_file(gen_random_digraph(200, 0.7, 2))
    h = pattern_file("2 1\n0 1\n")
    assert main(["tile", g, "--pattern", h, "--orders", "80,110"]) == 2
    # orders that do not sum to n are malformed input, refused before any construction
    assert "error: orders sum to 190" in capsys.readouterr().err
    assert main(["tile", g, "--pattern", h, "--orders", "0,200"]) == 2
    assert "error: every order must be >= 1" in capsys.readouterr().err
    # a positive order below the paper's minimum is well formed but infeasible
    assert main(["tile", g, "--pattern", h, "--orders", "1,199"]) == 3
    assert "pipeline failed at stage feasibility" in capsys.readouterr().err


def test_missing_file_is_exit_2(capsys):
    assert main(["check-degrees", "/nonexistent/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_parameter_is_exit_2(graph_file, capsys):
    k6 = graph_file(complete_digraph(6))
    assert main(["certify-expander", k6, "--nu", "0", "--tau", "1/6", "--exact"]) == 2


@pytest.mark.parametrize(
    "text, command, message",
    [
        ("0 0\n", ["build-cover", "--d", "3", "--gamma", "0.5"], "error: n must be >= 1"),
        ("0 0\n", ["check-degrees"], "error: need at least 3 vertices, got 0"),
        ("2 0\n", ["check-degrees"], "error: need at least 3 vertices, got 2"),
        ("2 0\n", ["find-subdivision", "--pattern", "h.txt", "--lengths", "1,1,1"],
         "error: the pattern has 3 vertices, more than n = 2"),
    ],
    ids=["build-cover-empty", "check-degrees-empty", "check-degrees-two-vertices",
         "pattern-larger-than-digraph"],
)
def test_too_small_digraph_is_exit_2(
    pattern_file, capsys, monkeypatch, tmp_path, text, command, message
):
    monkeypatch.chdir(tmp_path)
    pattern_file("3 3\n0 1\n1 2\n2 0\n")  # the triangle h.txt named above
    path = pattern_file(text, "g.txt")
    assert main([command[0], path, *command[1:]]) == 2
    assert message in capsys.readouterr().err


def test_absorb_demo_types(capsys):
    assert main(["absorb-demo", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)  # stdout must stay pure JSON
    assert obj["absorber"]["type"] == 1 and obj["absorber"]["d"] == 3
    assert len(obj["result"]) == 1
    assert "absorber:" in captured.err

    assert main(["absorb-demo", "--type", "2", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["absorber"]["type"] == 2
    assert len(obj["absorber"]["hosts"]) == 2
    assert len(obj["result"]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "3 2\n0 1\n1 x\n",
        "3 2\n0 1\n1 1\n",
        "3 2\n0 1\n1 7\n",
        "3 2\n0 1\nmap 0 2\n1 2\n",
        "12 1\n1_0 2\n",
        "3 1\n\u0662 1\n",
        "3 1\n0 99999999999999999999999\n",
        "99999999999999999999 0\n",
        "3000000000 0\n",  # rejected by the bound on n, before any n x n matrix
    ],
    ids=["non-integer", "loop", "out-of-range", "map-line", "underscore", "non-ascii-digit",
         "label-beyond-int64", "oversized-n", "n-above-the-bound"],
)
def test_malformed_digraph_is_exit_2(pattern_file, capsys, text):
    assert main(["check-degrees", pattern_file(text, "g.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_branch_map_is_exit_2(graph_file, pattern_file, capsys):
    g = graph_file(gen_random_digraph(300, 0.7, 0))
    h = pattern_file("2 1\n0 1\nmap 0 x\nmap 1 17\n")
    assert main(["find-subdivision", g, "--pattern", h, "--branches", "", "--lengths", "150"]) == 2
    assert "error:" in capsys.readouterr().err
    h = pattern_file("2 1\n0 1\n", "h_ok.txt")
    for branches in ("0:x", "0", "0:1:2"):
        assert main(["find-subdivision", g, "--pattern", h, "--branches", branches,
                     "--lengths", "150"]) == 2
        assert "error:" in capsys.readouterr().err
    # a branch map that is not injective is refused before the length floor (50)
    h = pattern_file("3 3\n0 1\n1 2\n2 0\n", "h_tri.txt")
    for lengths in ("30,30,30", "50,50,50"):
        assert main(["find-subdivision", g, "--pattern", h, "--branches", "0:1,1:1,2:3",
                     "--lengths", lengths]) == 2
        assert "branch map must be injective" in capsys.readouterr().err


@pytest.mark.parametrize(
    "paths, message",
    [
        ("5,x", "error:"),
        ("0,999999", "error: path 0 has a label outside 0..199"),
        ("0,1,0", "error: path 0 is not a valid path"),
        ("0,1", "error: path 0 meets the absorber"),  # 0 and 1 are its branch vertices
        ("5;6;7;8", "error: 4 paths exceed d = 3"),
        ("5", "fewer than 2 vertices"),  # no two ends for a covering pair
    ],
    ids=[
        "non-integer", "out-of-range", "repeated-vertex", "meets-the-absorber", "too-many",
        "one-vertex",
    ],
)
def test_absorb_demo_bad_paths_is_exit_2(capsys, paths, message):
    assert main(["absorb-demo", "--n", "200", "--paths", paths]) == 2
    err = capsys.readouterr().err
    assert message in err
    # only meeting the absorber needs it built; every other check comes first
    assert ("absorber:" in err) == (paths == "0,1")


INPUT_ERRORS = [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.InputError) and c is not errors.InputError
]


@pytest.mark.parametrize("kind", INPUT_ERRORS, ids=lambda c: c.__name__)
def test_every_input_error_is_exit_2(capsys, monkeypatch, kind):
    def refuse(args):
        raise kind("refused")

    monkeypatch.setattr(cli, "cmd_gen_random", refuse)
    assert main(["gen-random", "--n", "3", "--p", "0.5"]) == 2
    assert "error: refused" in capsys.readouterr().err
