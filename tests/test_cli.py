import json

import pytest

from dilink import complete_digraph, directed_cycle, gen_random_digraph
from dilink.cli import main
from dilink.fileio import format_digraph, parse_digraph, write_digraph


@pytest.fixture
def graph_file(tmp_path):
    def save(D, name="g.txt"):
        path = tmp_path / name
        write_digraph(D, str(path))
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


def test_check_degrees_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(format_digraph(complete_digraph(6))))
    assert main(["check-degrees", "-"]) == 0


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


def test_build_cover_output(graph_file, capsys):
    path = graph_file(gen_random_digraph(100, 0.7, 0))
    assert main(["build-cover", path, "--d", "3", "--gamma", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("formula m = ")
    assert "(capped: 50)" in lines[0]
    pairs = [tuple(map(int, l.split())) for l in lines[1:]]
    assert len(pairs) == 50
    assert all(len(p) == 2 for p in pairs)


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
    assert main(["tile", g, "--pattern", h, "--orders", "80,110"]) == 3
    # OrdersDontSumToN is a construction-level failure, not argparse usage


def test_missing_file_is_exit_2(capsys):
    assert main(["check-degrees", "/nonexistent/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_parameter_is_exit_2(graph_file, capsys):
    k6 = graph_file(complete_digraph(6))
    assert main(["certify-expander", k6, "--nu", "0", "--tau", "1/6", "--exact"]) == 2


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
    ["3 2\n0 1\n1 x\n", "3 2\n0 1\n1 1\n", "3 2\n0 1\n1 7\n"],
    ids=["non-integer", "loop", "out-of-range"],
)
def test_malformed_digraph_is_exit_2(pattern_file, capsys, text):
    assert main(["check-degrees", pattern_file(text, "g.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_branch_map_is_exit_2(graph_file, pattern_file, capsys):
    g = graph_file(gen_random_digraph(300, 0.7, 0))
    h = pattern_file("2 1\n0 1\nmap 0 x\nmap 1 17\n")
    assert main(["find-subdivision", g, "--pattern", h, "--branches", "", "--lengths", "150"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["find-subdivision", g, "--pattern", h, "--branches", "0:x", "--lengths", "150"]) == 2
    assert "error:" in capsys.readouterr().err


def test_absorb_demo_non_integer_paths_is_exit_2(capsys):
    assert main(["absorb-demo", "--n", "200", "--length", "130", "--paths", "5,x"]) == 2
    assert "error:" in capsys.readouterr().err
