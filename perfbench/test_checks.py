"""Self-test of the benchmark's output checks, span recorder and time scaling.

    python3 -m pytest -q perfbench/test_checks.py
    python3 perfbench/test_checks.py

Each checker must accept a right output and reject a deliberately
corrupted one: a vertex moved between tiles, a path one arc too long, a
missing arc, a flipped verdict and a counterexample that does not violate.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import (  # noqa: E402
    check_embedding,
    check_exact_verdict,
    check_falsifier,
    check_tiling,
    counting_condition,
    subsets_enumerated,
    violates,
    violating_masks,
)

F = Fraction
TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def complete(n: int) -> np.ndarray:
    M = np.ones((n, n), dtype=bool)
    np.fill_diagonal(M, False)
    return M


def cycle(n: int) -> np.ndarray:
    M = np.zeros((n, n), dtype=bool)
    for i in range(n):
        M[i, (i + 1) % n] = True
    return M


def tiles_of(paths):
    return [({0: p[0], 1: p[-1]}, tuple(p)) for p in paths]


def test_tiling_accepts_a_partition_into_paths():
    assert check_tiling(complete(7), tiles_of([[0, 1, 2], [3, 4, 5, 6]]), (3, 4)) is None


def test_tiling_rejects_a_vertex_moved_between_tiles():
    moved = tiles_of([[0, 1], [3, 4, 5, 6, 2]])
    assert check_tiling(complete(7), moved, (3, 4)) is not None


def test_tiling_rejects_a_missing_arc():
    M = complete(7)
    M[1, 2] = False
    assert check_tiling(M, tiles_of([[0, 1, 2], [3, 4, 5, 6]]), (3, 4)) is not None


def test_tiling_rejects_overlap_and_uncovered_vertices():
    M = complete(7)
    assert check_tiling(M, tiles_of([[0, 1, 2], [2, 4, 5, 6]]), (3, 4)) is not None
    assert check_tiling(M, tiles_of([[0, 1, 2], [3, 4, 5]]), (3, 3)) is not None


EMBED_PATHS = [(0, 3, 4, 1), (1, 5, 2), (2, 6, 7, 0)]


def test_embedding_accepts_exact_lengths():
    branch = {0: 0, 1: 1, 2: 2}
    assert check_embedding(complete(10), TRIANGLE, branch, branch, EMBED_PATHS, [3, 2, 3]) is None


def test_embedding_rejects_a_path_one_arc_too_long():
    branch = {0: 0, 1: 1, 2: 2}
    longer = [(0, 3, 4, 8, 1)] + EMBED_PATHS[1:]
    assert check_embedding(complete(10), TRIANGLE, branch, branch, longer, [3, 2, 3]) is not None


def test_embedding_rejects_a_missing_arc_and_a_changed_branch_map():
    branch = {0: 0, 1: 1, 2: 2}
    M = complete(10)
    M[5, 2] = False
    assert check_embedding(M, TRIANGLE, branch, branch, EMBED_PATHS, [3, 2, 3]) is not None
    moved = {0: 0, 1: 1, 2: 9}
    assert check_embedding(complete(10), TRIANGLE, branch, moved, EMBED_PATHS, [3, 2, 3]) is not None


def test_embedding_rejects_interiors_that_meet():
    branch = {0: 0, 1: 1, 2: 2}
    shared = [(0, 3, 4, 1), (1, 3, 2), (2, 6, 7, 0)]
    assert check_embedding(complete(10), TRIANGLE, branch, branch, shared, [3, 2, 3]) is not None


def brute_force_violators(M, nu, tau):
    n = len(M)
    return {
        S for s in range(n + 1) for S in itertools.combinations(range(n), s)
        if violates(M, S, nu, tau)
    }


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(3)
    for p in (0.3, 0.6, 0.9):
        M = rng.random((9, 9)) < p
        np.fill_diagonal(M, False)
        for nu, tau in ((F(1, 6), F(1, 6)), (F(1, 9), F(1, 3))):
            masks = {int(m) for m in violating_masks(M, nu, tau)}
            sets = {sum(1 << v for v in S) for S in brute_force_violators(M, nu, tau)}
            assert masks == sets


def test_subset_count():
    # tau = 1/5 at n = 10 quantifies the sizes 3..7
    direct = sum(1 for s in range(3, 8) for _ in itertools.combinations(range(10), s))
    assert subsets_enumerated(10, F(1, 5)) == direct


def test_exact_verdict_rejects_a_flipped_verdict():
    nu = tau = F(1, 6)
    K, C = complete(8), cycle(8)
    assert len(violating_masks(K, nu, tau)) == 0
    assert len(violating_masks(C, nu, tau)) > 0
    assert check_exact_verdict(K, nu, tau, "certified-exact", None, True) is None
    assert check_exact_verdict(K, nu, tau, "refuted", [0, 1, 2], True) is not None
    assert check_exact_verdict(C, nu, tau, "certified-exact", None, False) is not None


def test_exact_verdict_rejects_a_non_violating_counterexample():
    nu = tau = F(1, 6)
    C = cycle(8)
    witness = sorted(v for v in range(8) if int(violating_masks(C, nu, tau)[0]) >> v & 1)
    assert check_exact_verdict(C, nu, tau, "refuted", witness, False) is None
    assert check_exact_verdict(C, nu, tau, "refuted", [0], False) is not None
    assert check_exact_verdict(C, nu, tau, "refuted", None, False) is not None


def test_counting_condition_implies_expansion():
    # n = 20, (nu, tau) = (1/10, 2/5): sizes 9..11, so in-degree 13 suffices
    nu, tau = F(1, 10), F(2, 5)
    M = complete(20)
    for i in range(20):
        for j in range(1, 7):
            M[i, (i + j) % 20] = False
    assert M.sum(axis=0).min() == 13
    assert counting_condition(M, nu, tau)
    assert len(violating_masks(M, nu, tau)) == 0
    M[0, 7] = False
    assert not counting_condition(M, nu, tau)
    assert not counting_condition(cycle(20), nu, tau)


def test_falsifier_check_rejects_a_flipped_verdict_or_unspent_trials():
    assert check_falsifier("no-counterexample-found", 400, 400, True) is None
    assert check_falsifier("refuted", 17, 400, True) is not None
    assert check_falsifier("no-counterexample-found", 399, 400, True) is not None
    assert check_falsifier("no-counterexample-found", 400, 400, False) is not None


def test_recorder_wraps_every_binding_and_removes_its_wrappers():
    import dilink
    import dilink.generators
    from tracing import Recorder, unit_metrics

    before = dilink.gen_random_digraph
    rec = Recorder()
    rec.install()
    try:
        assert dilink.gen_random_digraph is not before
        assert dilink.generators.gen_random_digraph is dilink.gen_random_digraph
        rec.unit = "op-0"
        rec.call("bench.op", lambda: dilink.gen_random_digraph(40, 0.5, 0).bool_matrix())
    finally:
        rec.uninstall()
    assert dilink.gen_random_digraph is before
    assert dilink.generators.gen_random_digraph is before
    names = [s[0] for s in rec.spans]
    assert names.count("generators.gen_random_digraph") == 1
    assert "digraph.init" in names and "digraph.bool_matrix" in names
    metrics, layers_self = unit_metrics(rec.spans, setup=False)
    root = next(s for s in rec.spans if s[0] == "bench.op")
    assert abs(layers_self + metrics["bench.self_s"] - (root[5] - root[4])) < 1e-9
    assert metrics["digraph.init_s"] > 0


def test_coverage_check_flags_time_outside_every_layer():
    import time

    import dilink
    from tracing import Recorder, per_layer_metrics

    def traced(unit, fn):
        rec.unit = unit
        start = time.perf_counter()
        rec.call("bench.op", fn)
        walls[unit] = time.perf_counter() - start

    rec, walls = Recorder(), {}
    rec.install()
    try:
        traced("op-0", lambda: dilink.gen_random_digraph(60, 0.5, 0))
        traced("op-1", lambda: (dilink.gen_random_digraph(60, 0.5, 0), time.sleep(0.05)))
    finally:
        rec.uninstall()
    _, mismatched = per_layer_metrics(rec, walls, 0)
    assert len(mismatched) == 1 and mismatched[0].startswith("op-1:")


def test_times_are_scaled_by_the_ticks_around_them():
    from run import TICK_REF_S, _scaled

    slow = 2 * TICK_REF_S  # the host at half the reference speed
    calls = [("setup", 2.0, slow), ("operation", 1.0, slow), ("operation", 3.0, TICK_REF_S)]
    assert _scaled(calls, TICK_REF_S, "setup") == [1.0]
    first, second = _scaled(calls, TICK_REF_S, "operation")
    assert abs(first - 1.0 / 1.5) < 1e-12 and abs(second - 3.0) < 1e-12


def test_benchmark_spec_matches_the_code():
    import json

    from run import NAMES
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert NAMES == tuple(WORKLOADS) == tuple(w["name"] for w in spec["workloads"])
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_s", "peak_rss_mb"}


if __name__ == "__main__":
    tests = [(k, f) for k, f in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checks passed")
