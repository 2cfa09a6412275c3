import random
import time

import numpy as np
import pytest
from helpers import oracle_has_hamilton_cycle, random_arc_set

from dilink import (
    Digraph,
    complete_digraph,
    cut_cycle_segments,
    cycles,
    directed_cycle,
    gen_random_digraph,
    hamilton_cycle,
    validate_cycle,
)
from dilink.errors import BadParameter, CycleNotFound


def _two_complete_digraphs(k: int) -> Digraph:
    """Disjoint complete digraphs on 0..k-1 and k..2k-1: a 1-factor
    exists, a Hamilton cycle does not."""
    return Digraph(
        2 * k,
        [(u + s, v + s) for s in (0, k) for u in range(k) for v in range(k) if u != v],
    )


def test_directed_cycle_is_its_own_hamilton_cycle():
    assert hamilton_cycle(directed_cycle(8), seed=0) == tuple(range(8))


def test_acyclic_digraph_has_no_cycles():
    with pytest.raises(CycleNotFound) as e:
        hamilton_cycle(Digraph(6, [(i, i + 1) for i in range(5)]), seed=0)
    assert e.value.exact  # vertex 5 has no out-arc, so there is no 1-factor


def test_exactness_flag_is_honest_above_the_cap():
    # absence is proven by the subset table at n = 10 ...
    with pytest.raises(CycleNotFound) as e:
        hamilton_cycle(_two_complete_digraphs(5), seed=0)
    assert e.value.exact
    # ... but at n = 20 patching stalls and nothing is proven
    with pytest.raises(CycleNotFound) as e:
        hamilton_cycle(_two_complete_digraphs(10), seed=0)
    assert not e.value.exact
    # a missing 1-factor is a proof at any n
    with pytest.raises(CycleNotFound) as e:
        hamilton_cycle(Digraph(20, [(i, i + 1) for i in range(19)]), seed=0)
    assert e.value.exact


def _complete_but_one(labels: list[int], n: int) -> Digraph:
    """A complete digraph on labels[:13] plus labels[13] joined both ways
    to labels[5] alone: 1-factors exist, a Hamilton cycle does not."""
    core, x = labels[:13], labels[13]
    arcs = [(u, v) for u in core for v in core if u != v]
    return Digraph(n, arcs + [(x, core[5]), (core[5], x)])


def test_a_stalled_search_on_fourteen_vertices_ends_exact():
    start = time.perf_counter()
    with pytest.raises(CycleNotFound, match="no Hamilton cycle exists") as e:
        hamilton_cycle(_complete_but_one(list(range(14)), 14), seed=0)
    assert e.value.exact
    assert time.perf_counter() - start < 0.5


def test_the_subset_table_maps_back_to_the_kept_labels(monkeypatch):
    # 14 kept vertices spread over 0..29: no prefix of D's labels
    rng = random.Random(4)
    labels = sorted(rng.sample(range(30), 14))
    assert labels != list(range(14))
    X = set(range(30)) - set(labels)
    with pytest.raises(CycleNotFound, match="no Hamilton cycle exists") as e:
        hamilton_cycle(_complete_but_one(labels, 30), seed=0, avoid=X)
    assert e.value.exact
    # with patching made to stall, the table alone finds the cycle
    monkeypatch.setattr(cycles, "_patch", lambda *args: False)
    D = gen_random_digraph(30, 0.5, 7)
    C = hamilton_cycle(D, seed=0, avoid=X)
    assert sorted(C) == labels and C[0] == labels[0] and validate_cycle(D, C)


def test_no_one_factor_names_the_hall_violator():
    M = gen_random_digraph(30, 0.5, 1).bool_matrix().copy()
    M[7, :] = False
    with pytest.raises(CycleNotFound, match=r"vertex 7 .*\|S\| = 1 > \|N\+\(S\)\| = 0") as e:
        hamilton_cycle(Digraph(30, np.argwhere(M)), seed=0)
    assert e.value.exact
    # vertices 0, 1 and 2 send arcs only to 3 and 4
    M = gen_random_digraph(30, 0.5, 2).bool_matrix().copy()
    M[:3, :] = False
    M[:3, 3:5] = True
    with pytest.raises(CycleNotFound, match=r"\|S\| = 3 > \|N\+\(S\)\| = 2") as e:
        hamilton_cycle(Digraph(30, np.argwhere(M)), seed=0)
    assert e.value.exact


def test_argument_guards():
    for n in (0, 1):
        with pytest.raises(BadParameter):
            hamilton_cycle(complete_digraph(n), seed=0)
    for X in ([0, 1, 2, 3], [0, 1, 2, 3, 4]):  # fewer than 2 vertices kept
        with pytest.raises(BadParameter):
            hamilton_cycle(complete_digraph(5), seed=0, avoid=X)
    assert hamilton_cycle(complete_digraph(5), seed=0, avoid=[0, 2, 4]) == (1, 3)


def test_dense_random_digraphs_reach_long_cycles():
    for seed in range(6):
        D = gen_random_digraph(120, 0.5, seed)
        C = hamilton_cycle(D, seed=seed)
        assert len(C) == 120 and C[0] == 0
        assert validate_cycle(D, C)


def test_hamilton_cycle_dense():
    D = gen_random_digraph(150, 0.4, 3)
    C = hamilton_cycle(D, seed=0)
    assert sorted(C) == list(range(150))
    assert validate_cycle(D, C)


def test_search_is_deterministic_in_seed():
    D = gen_random_digraph(60, 0.4, 9)
    assert hamilton_cycle(D, seed=5) == hamilton_cycle(D, seed=5)


def test_hamilton_cycle_agrees_with_permutation_oracle():
    rng = random.Random(6)
    found = absent = 0
    for _ in range(320):
        n = rng.randint(2, 8)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.2, 0.8)))
        try:
            C = hamilton_cycle(D, seed=rng.randrange(1000))
        except CycleNotFound as e:
            assert e.exact
            assert not oracle_has_hamilton_cycle(D)
            absent += 1
        else:
            assert len(C) == n and validate_cycle(D, C)
            found += 1
    assert found >= 50 and absent >= 50


def test_sparse_and_dense_random_digraphs_are_hamiltonian():
    start = time.perf_counter()
    for n, p in ((1000, 0.7), (2000, 0.3), (1000, 0.03), (2000, 0.02), (1000, 0.015)):
        D = gen_random_digraph(n, p, 0)
        C = hamilton_cycle(D, seed=0)
        assert len(C) == n and validate_cycle(D, C)
    assert time.perf_counter() - start < 5


def test_cut_segments_basic_and_wraparound():
    C = tuple(range(10, 22))  # 12 vertices
    segs = cut_cycle_segments(C, [3, 4, 2], seed=0)
    assert [len(s) for s in segs] == [3, 4, 2]
    flat = [x for s in segs for x in s]
    assert len(set(flat)) == len(flat)  # pairwise disjoint
    assert set(flat) <= set(C)
    # consecutive along the cycle, including across the wrap point
    pos = {x: i for i, x in enumerate(C)}
    for s in segs:
        for a, b in zip(s, s[1:]):
            assert pos[b] == (pos[a] + 1) % len(C)
    # some offset wraps: try all seeds until a segment crosses the end
    wrapped = False
    for seed in range(40):
        segs = cut_cycle_segments(C, [5, 5], seed=seed)
        for s in segs:
            if pos[s[-1]] < pos[s[0]]:
                wrapped = True
    assert wrapped


def test_cut_segments_guards_and_determinism():
    C = tuple(range(8))
    with pytest.raises(BadParameter, match="segment sizes sum to 9 on a cycle of 8 vertices"):
        cut_cycle_segments(C, [5, 4])
    with pytest.raises(BadParameter):
        cut_cycle_segments(C, [3, 0])
    assert cut_cycle_segments(C, [2, 3], seed=7) == cut_cycle_segments(C, [2, 3], seed=7)
    full = cut_cycle_segments(C, [8], seed=1)[0]  # consuming the whole cycle is fine
    assert sorted(full) == list(C)
