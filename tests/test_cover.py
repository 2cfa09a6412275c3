import math
import random

import numpy as np
import pytest

from dilink import (
    CoverPairSet,
    Digraph,
    build_d_cover,
    build_disjoint_ladders,
    complete_digraph,
    cover_size_formula,
    covers,
    directed_cycle,
    gen_random_digraph,
    shortest_path_avoiding,
    validate_ladder,
    validate_path,
    verify_d_cover,
)
from dilink.cover import _random_pairs
from dilink.errors import (
    BadParameter,
    CoverConstructionFailed,
    LabelOutOfRange,
    LadderConstructionFailed,
)

from helpers import oracle_d_cover, random_arc_set


def test_pair_set_validation():
    K = CoverPairSet(((0, 1), (2, 3)))
    assert len(K) == 2
    assert list(K) == [(0, 1), (2, 3)]
    assert K.vertices() == frozenset({0, 1, 2, 3})
    with pytest.raises(BadParameter):
        CoverPairSet(((0, 1), (1, 2)))  # shared vertex
    with pytest.raises(BadParameter):
        CoverPairSet(((0, 0),))


def test_covers_requires_distinctness_and_both_arcs():
    D = Digraph(5, [(0, 2), (3, 1), (0, 3)])
    assert covers(D, (0, 1), (2, 3))
    assert not covers(D, (0, 1), (3, 2))  # arcs point the wrong way
    assert not covers(D, (0, 1), (0, 3))  # u == x
    assert not covers(D, (0, 2), (2, 3))  # v == x


def test_verify_matches_definition_checker_on_random_instances():
    rng = random.Random(31)
    for _ in range(250):
        n = rng.randrange(6, 22)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.2, 0.9)))
        m = rng.randrange(1, min(7, n // 2) + 1)
        verts = rng.sample(range(n), 2 * m)
        pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(m)]
        usize = rng.randrange(2, n + 1)
        U = rng.sample(range(n), usize)
        d = rng.randrange(1, 4)
        assert verify_d_cover(D, pairs, U, d) == oracle_d_cover(D, pairs, U, d)


def test_verify_correction_terms_with_pair_arcs():
    # pairs that are themselves arcs exercise the u->v correction paths
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randrange(6, 16)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.4, 0.95)))
        arcs = sorted(D.arcs)
        rng.shuffle(arcs)
        pairs, used = [], set()
        for u, v in arcs:
            if u not in used and v not in used:
                pairs.append((u, v))
                used.update((u, v))
            if len(pairs) == 4:
                break
        if len(pairs) < 2:
            continue
        for d in (1, 2):
            assert verify_d_cover(D, pairs, range(n), d) == oracle_d_cover(
                D, pairs, range(n), d
            )


def test_verify_edge_cases():
    D = complete_digraph(6)
    assert verify_d_cover(D, [], range(6), 0)  # d = 0 is vacuous
    assert not verify_d_cover(D, [], range(6), 1)
    assert verify_d_cover(D, [(0, 1)], {2}, 5)  # |U| < 2 is vacuous
    with pytest.raises(BadParameter):
        verify_d_cover(D, [(0, 1)], range(6), -1)


def test_formula_frozen_values():
    # ceil(24 γ^-2 (d ln(24 d γ^-2) + 2 ln n)), natural logarithms
    assert cover_size_formula(500, 0.4, 8) == math.ceil(
        150 * (8 * math.log(1200) + 2 * math.log(500))
    )
    assert cover_size_formula(500, 0.4, 8) == 10373
    assert cover_size_formula(400, 0.5, 8) == math.ceil(
        96 * (8 * math.log(768) + 2 * math.log(400))
    )
    with pytest.raises(BadParameter):
        cover_size_formula(100, 0, 3)
    with pytest.raises(BadParameter):
        cover_size_formula(100, 0.5, 0)
    with pytest.raises(BadParameter):
        cover_size_formula(0, 0.5, 3)  # log(0) is undefined


def test_build_cover_on_complete_digraph():
    D = complete_digraph(20)
    K = build_d_cover(D, 2, seed=1)
    assert 1 <= len(K) <= 10
    assert verify_d_cover(D, K, range(20), 2)
    assert oracle_d_cover(D, K.pairs, range(20), 2)
    assert not oracle_d_cover(D, K.pairs[:-1], range(20), 2)


def test_build_cover_pairs_are_arcs():
    D = complete_digraph(30)
    K = build_d_cover(D, 2, seed=7)
    assert all(D.has_arc(u, v) for u, v in K)
    # at density 1/2 every vertex still has free out-neighbours while a
    # 1-cover is grown, so the fallback is never needed
    D = gen_random_digraph(100, 0.5, 3)
    K = build_d_cover(D, 1, seed=7, avoid={4, 5})
    assert not (K.vertices() & {4, 5})
    assert all(D.has_arc(u, v) for u, v in K)


def test_build_cover_falls_back_to_a_non_arc_pair():
    # vertex 0 has no in-arcs and its one out-neighbour, 20, is not usable,
    # so no pair holding 0 is an arc; pairing all 20 usable vertices puts
    # 0 in a pair all the same, through the any-free-vertex fallback
    n = 21
    arcs = [(u, v) for u in range(1, n) for v in range(1, n) if u != v] + [(0, 20)]
    D = Digraph(n, arcs)
    U = range(1, 20)
    for seed in range(5):
        pairs = list(_random_pairs(D.bool_matrix(), list(range(20)), seed))
        assert len(pairs) == 10
        flat = [v for p in pairs for v in p]
        assert len(set(flat)) == 20 and 20 not in flat
        [odd] = [p for p in pairs if 0 in p]
        assert not D.has_arc(*odd)
        assert all(D.has_arc(u, v) for u, v in pairs if 0 not in (u, v))
        assert verify_d_cover(D, pairs, U, 2)
        assert oracle_d_cover(D, pairs, U, 2)


@pytest.mark.parametrize(
    "K,U",
    [([(0, 1), (2, 3)], {-1, 4}), ([(0, 1), (2, 3)], {9, 4}), ([(0, 7)], None), ([(-2, 1)], None)],
    ids=["negative-in-U", "too-large-in-U", "too-large-in-K", "negative-in-K"],
)
def test_verify_cover_rejects_labels_outside_the_digraph(K, U):
    with pytest.raises(LabelOutOfRange):
        verify_d_cover(complete_digraph(6), K, U, 1)


def test_build_cover_rejects_labels_outside_the_digraph():
    for avoid in ({9, 4}, {-1}):
        with pytest.raises(LabelOutOfRange):
            build_d_cover(complete_digraph(6), 1, seed=0, avoid=avoid)


def test_build_cover_failure_paths():
    # a directed cycle gives every vertex one out-neighbour, and too few
    # usable vertices hold fewer than d pairs: both are proofs
    with pytest.raises(CoverConstructionFailed, match="vertex 0 has only 1 out-") as e:
        build_d_cover(directed_cycle(20), 2, seed=0)
    assert e.value.exact
    with pytest.raises(CoverConstructionFailed, match="make fewer than 4 pairs") as e:
        build_d_cover(complete_digraph(9), 4, 0, avoid={7, 8})
    assert e.value.exact
    # below two vertices there is no ordered pair to cover
    assert len(build_d_cover(Digraph(1, []), 3, seed=0)) == 0


@pytest.mark.parametrize("way", ["out", "in"])
def test_build_cover_names_a_vertex_no_pair_can_cover(way, monkeypatch):
    # every pair covering (x, 0) needs its own out-neighbour of 0 (and every
    # pair covering (0, y) its own in-neighbour), so without them no cover
    # exists, and the builder says so before it draws a single pair
    M = gen_random_digraph(200, 0.7, 0).bool_matrix().copy()
    if way == "out":
        M[0, :] = False
    else:
        M[:, 0] = False
    draws = []

    def counted(*args):
        for pair in _random_pairs(*args):
            draws.append(pair)
            yield pair

    monkeypatch.setattr("dilink.cover._random_pairs", counted)
    with pytest.raises(
        CoverConstructionFailed, match=rf"vertex 0 has only 0 {way}-neighbours"
    ) as e:
        build_d_cover(Digraph(200, np.argwhere(M)), 3, seed=0)
    assert e.value.exact
    assert draws == []


def test_build_cover_counts_only_neighbours_outside_avoid():
    # 0 -> 1 and 0 -> 2 only; with 1 avoided, 0 has one usable out-neighbour
    arcs = [(u, v) for u in range(1, 20) for v in range(20) if u != v]
    D = Digraph(20, arcs + [(0, 1), (0, 2)])
    with pytest.raises(CoverConstructionFailed, match="vertex 0 has only 1 out-"):
        build_d_cover(D, 2, seed=0, avoid={1})


def test_grow_cover_stops_once_it_covers():
    D = gen_random_digraph(300, 0.7, 0)
    for seed in range(3):
        K = build_d_cover(D, 3, seed, avoid={0, 1})
        assert not K.vertices() & {0, 1}
        assert verify_d_cover(D, K, None, 3)
        assert not verify_d_cover(D, K.pairs[:-1], None, 3)
        assert len(K) < 60  # a small fraction of the 150 pairs D holds


def test_grow_cover_failures_say_whether_they_prove_anything():
    M = gen_random_digraph(200, 0.7, 0).bool_matrix().copy()
    M[:, 0] = False
    with pytest.raises(CoverConstructionFailed, match="vertex 0 has only 0 in-neighbours") as e:
        build_d_cover(Digraph(200, np.argwhere(M)), 3, 0)
    assert e.value.exact
    # two disjoint halves: every vertex has enough neighbours, but no pair
    # covers (x, y) across the halves, which no degree count proves
    halves = Digraph(40, [(u, v) for u in range(40) for v in range(40)
                          if u != v and (u < 20) == (v < 20)])
    with pytest.raises(CoverConstructionFailed, match="all 20 pairs are no 1-cover") as e:
        build_d_cover(halves, 1, 0)
    assert not e.value.exact
    with pytest.raises(BadParameter):
        build_d_cover(halves, 0, 0)


def test_shortest_path_avoiding_basics():
    # 0 -> 2 -> 1 plus a long detour 0 -> 3 -> 4 -> 1
    D = Digraph(5, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    assert shortest_path_avoiding(D, 0, 1, set(), 3) == (0, 2, 1)
    assert shortest_path_avoiding(D, 0, 1, {2}, 3) is None
    assert shortest_path_avoiding(D, 0, 1, {2}, 4) == (0, 3, 4, 1)
    assert shortest_path_avoiding(D, 0, 1, set(), 2) is None  # no direct arc
    assert shortest_path_avoiding(D, 0, 0, set(), 4) is None
    assert shortest_path_avoiding(D, 0, 1, {0, 1}, 3) == (0, 2, 1)  # ends may be blocked
    two_ways = Digraph(4, [(0, 3), (3, 1), (0, 2), (2, 1)])
    assert shortest_path_avoiding(two_ways, 0, 1, set(), 3) == (0, 2, 1)  # lowest label


@pytest.mark.parametrize(
    "s, t, blocked",
    [(-1, 1, set()), (4, 1, set()), (5, 1, set()), (0, -1, set()), (0, 4, set()),
     (0, 2, {-1}), (0, 2, {1, 4})],
    ids=["negative-s", "s-is-n", "s-above-n", "negative-t", "t-is-n",
         "negative-in-blocked", "n-in-blocked"],
)
def test_shortest_path_avoiding_rejects_labels_outside_the_digraph(s, t, blocked):
    # numpy would wrap -1 to row n-1 and route (-1, 1) as (-1, 0, 1)
    D = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(LabelOutOfRange):
        shortest_path_avoiding(D, s, t, blocked, 4)


def test_shortest_path_is_genuinely_shortest():
    rng = random.Random(13)
    for trial in range(150):
        n = rng.randrange(5, 15)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.15, 0.5)))
        s, t = rng.sample(range(n), 2)
        blocked = set(rng.sample(range(n), rng.randrange(0, 3))) - {s, t}
        # unshuffled, and shuffled by a seeded rng as the absorber routes
        found = [shortest_path_avoiding(D, s, t, blocked, 6, r)
                 for r in (None, random.Random(trial))]
        # reference: breadth-first distances through allowed interiors
        dist = {s: 1}
        frontier = [s]
        best = None
        while frontier and best is None:
            nxt = []
            for u in frontier:
                for w in D.out_neighbors(u):
                    if w == t:
                        best = dist[u] + 1
                        break
                    if w not in dist and w not in blocked:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
                if best is not None:
                    break
            frontier = nxt
        for got in found:
            if best is None or best > 6:
                assert got is None
            else:
                assert got is not None
                assert len(got) == best
                assert validate_path(D, got)
                assert not (set(got[1:-1]) & blocked)


def test_build_ladders_on_dense_digraph():
    D = gen_random_digraph(80, 0.6, 9)
    terminals = [(0, 1), (2, 3), (4, 5)]
    ladders = build_disjoint_ladders(D, terminals, 0.75, seed=2, ladder_k=1)
    seen = set()
    for (u, v), L in zip(terminals, ladders):
        assert L.k == 1
        assert L.start == u and L.end == v
        assert validate_ladder(D, L)
        assert len(L.vertices()) <= 12 / 0.75**2
        # the zig-zag rows (the connector-free skeleton) have their own cap
        assert len(L.lower) + len(L.upper) <= 8 / 0.75
        assert not (L.vertices() & seen)
        seen |= L.vertices()


def test_build_ladders_auto_k_and_avoid():
    D = complete_digraph(40)
    avoid = set(range(20, 30))
    ladders = build_disjoint_ladders(D, [(0, 1), (2, 3)], 1, seed=0, avoid=avoid)
    # arcs exist, so both collapse to single-arc ladders
    assert all(L.k == 0 for L in ladders)
    # k=2 rows need 10 vertices: allowed at nu=3/4 (cap 8/nu = 10)
    ladders2 = build_disjoint_ladders(D, [(0, 1)], 0.75, seed=0, ladder_k=2, avoid=avoid)
    assert ladders2[0].k == 2
    assert not (ladders2[0].vertices() & avoid)


def test_build_ladders_failure_modes():
    with pytest.raises(LadderConstructionFailed) as exc:
        # no arc 0->2 in a directed cycle, and k=0 demands one
        build_disjoint_ladders(directed_cycle(6), [(0, 2)], 1, seed=0, ladder_k=0)
    assert exc.value.index == 0
    with pytest.raises(BadParameter):
        build_disjoint_ladders(complete_digraph(10), [(0, 1), (1, 2)], 1, seed=0)
    with pytest.raises(LadderConstructionFailed):
        # a k=3 ladder needs two rows of 7, 14 row vertices; nu=1 caps them
        # at 8/nu = 8, so the row cap refuses it
        build_disjoint_ladders(complete_digraph(40), [(0, 1)], 1, seed=0, ladder_k=3)
