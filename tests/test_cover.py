import math
import random
import tracemalloc

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
import dilink.cover as cover_module
from dilink.cover import _RANK, _prefix_needed, _random_pairs
from dilink.errors import BadParameter, ConstructionFailed, LabelOutOfRange

from helpers import (
    free_mask,
    oracle_d_cover,
    oracle_grow_d_cover,
    random_arc_set,
    threshold_digraph,
)


def test_pair_set_validation():
    K = CoverPairSet(((0, 1), (2, 3)))
    assert len(K) == 2
    assert list(K) == [(0, 1), (2, 3)]
    assert K.vertices() == frozenset({0, 1, 2, 3})
    with pytest.raises(BadParameter):
        CoverPairSet(((0, 1), (1, 2)))  # shared vertex
    with pytest.raises(BadParameter):
        CoverPairSet(((0, 0),))
    assert CoverPairSet([(np.int64(0), np.uint16(1))]).pairs == ((0, 1),)


@pytest.mark.parametrize(
    "pairs", [[(0.5, 2.7)], [(0, 2.0)], [(True, 4)], [(0, 1), (2, "3")]],
    ids=["fraction", "float", "bool", "string"],
)
def test_pair_labels_that_are_not_integers_raise_bad_parameter(pairs):
    # int() once truncated them: [(0.5, 2.7), (True, 4.9)] read as ((0, 2), (1, 4))
    with pytest.raises(BadParameter, match="is not an integer label"):
        CoverPairSet(pairs)


@pytest.mark.parametrize(
    "pairs", [[5], [(0, 1, 2)], [(0, 1), (2,)], [(0.5, 1, 2)], [(0, 1), None]],
    ids=["int", "triple", "single", "fraction-triple", "none"],
)
def test_pairs_that_are_not_pairs_raise_bad_parameter(pairs):
    # [5] once ended in a bare TypeError and [(0, 1, 2)] in a bare
    # ValueError; the shape is checked before the labels
    with pytest.raises(BadParameter, match="^each cover pair must unpack to two labels"):
        CoverPairSet(pairs)


def test_pair_labels_outside_every_digraph_raise_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        CoverPairSet([(-1, 2)])


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
        d = rng.randrange(1, 4)
        assert verify_d_cover(D, pairs, d) == oracle_d_cover(D, pairs, range(n), d)


def test_verify_matches_definition_checker_one_row_block_at_a_time(monkeypatch):
    # one row per block, so block s holds the diagonal entry (s, s) in column s
    monkeypatch.setattr(cover_module, "_BLOCK_BYTES", 1)
    test_verify_matches_definition_checker_on_random_instances()


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
            assert verify_d_cover(D, pairs, d) == oracle_d_cover(D, pairs, range(n), d)


def test_verify_edge_cases():
    D = complete_digraph(6)
    assert verify_d_cover(D, [], 0)  # d = 0 is vacuous
    assert not verify_d_cover(D, [], 1)
    assert verify_d_cover(Digraph(1, []), [], 5)  # n < 2 is vacuous
    with pytest.raises(BadParameter):
        verify_d_cover(D, [(0, 1)], -1)


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
    assert verify_d_cover(D, K, 2)
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
        assert oracle_d_cover(D, pairs, U, 2)


@pytest.mark.parametrize("K", [[(0, 7)], [(-2, 1)]], ids=["too-large-in-K", "negative-in-K"])
def test_verify_cover_rejects_labels_outside_the_digraph(K):
    with pytest.raises(LabelOutOfRange):
        verify_d_cover(complete_digraph(6), K, 1)


def test_build_cover_rejects_labels_outside_the_digraph():
    for avoid in ({9, 4}, {-1}):
        with pytest.raises(LabelOutOfRange):
            build_d_cover(complete_digraph(6), 1, seed=0, avoid=avoid)


def test_build_cover_failure_paths():
    # a directed cycle gives every vertex one out-neighbour, and too few
    # usable vertices hold fewer than d pairs: both are proofs
    with pytest.raises(ConstructionFailed, match="vertex 0 has only 1 out-") as e:
        build_d_cover(directed_cycle(20), 2, seed=0)
    assert e.value.exact
    with pytest.raises(ConstructionFailed, match="make fewer than 4 pairs") as e:
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
        ConstructionFailed, match=rf"vertex 0 has only 0 {way}-neighbours"
    ) as e:
        build_d_cover(Digraph(200, np.argwhere(M)), 3, seed=0)
    assert e.value.exact
    assert draws == []


def test_build_cover_counts_only_neighbours_outside_avoid():
    # 0 -> 1 and 0 -> 2 only; with 1 avoided, 0 has one usable out-neighbour
    arcs = [(u, v) for u in range(1, 20) for v in range(20) if u != v]
    D = Digraph(20, arcs + [(0, 1), (0, 2)])
    with pytest.raises(ConstructionFailed, match="vertex 0 has only 1 out-"):
        build_d_cover(D, 2, seed=0, avoid={1})


def test_grow_cover_stops_once_it_covers():
    D = gen_random_digraph(300, 0.7, 0)
    for seed in range(3):
        K = build_d_cover(D, 3, seed, avoid={0, 1})
        assert not K.vertices() & {0, 1}
        assert verify_d_cover(D, K, 3)
        assert not verify_d_cover(D, K.pairs[:-1], 3)
        assert len(K) < 60  # a small fraction of the 150 pairs D holds


def test_grow_cover_failures_say_whether_they_prove_anything():
    M = gen_random_digraph(200, 0.7, 0).bool_matrix().copy()
    M[:, 0] = False
    with pytest.raises(ConstructionFailed, match="vertex 0 has only 0 in-neighbours") as e:
        build_d_cover(Digraph(200, np.argwhere(M)), 3, 0)
    assert e.value.exact
    # two disjoint halves: every vertex has enough neighbours, but no pair
    # covers (x, y) across the halves, which no degree count proves
    halves = Digraph(40, [(u, v) for u in range(40) for v in range(40)
                          if u != v and (u < 20) == (v < 20)])
    with pytest.raises(ConstructionFailed, match="all 20 pairs are no 1-cover") as e:
        build_d_cover(halves, 1, 0)
    assert not e.value.exact
    with pytest.raises(BadParameter):
        build_d_cover(halves, 0, 0)


def _grown_or_none(D, d, seed, avoid=()):
    try:
        return build_d_cover(D, d, seed, avoid=avoid).pairs
    except ConstructionFailed as e:
        assert not e.exact
        return None


@pytest.mark.parametrize("p", [0.7, 0.6])
def test_grow_cover_matches_the_dense_reference_past_the_hand_over(p, monkeypatch):
    # at n = 300 the count is handed from the dense matrix to the list of
    # short entries with entries still short, so both phases pick pairs
    real, kept = cover_module._short_entries, []

    def counted(*args):
        flat = real(*args)
        kept.append(len(flat))
        return flat

    monkeypatch.setattr(cover_module, "_short_entries", counted)
    D = gen_random_digraph(300, p, 5)
    for seed in range(3):
        for d, avoid in ((1, ()), (3, {0, 1, 2}), (5, ())):
            assert _grown_or_none(D, d, seed, avoid) == oracle_grow_d_cover(D, d, seed, avoid)
    assert len(kept) == 9 and min(kept) > 0


def test_grow_cover_matches_the_dense_reference_at_every_block_and_byte_boundary(monkeypatch):
    # one row per block; pairs are counted in groups of 8, and the covers
    # below stop at every position inside a group: near-complete digraphs
    # in the dense count, within their first group at d <= 2 and in their
    # second at d = 9, and D(300, 0.7) past the hand-over, in the list of
    # short entries
    monkeypatch.setattr(cover_module, "_BLOCK_BYTES", 1)
    real, handed = cover_module._short_entries, []

    def counted(*args):
        handed.append(True)
        return real(*args)

    monkeypatch.setattr(cover_module, "_short_entries", counted)
    cases = [
        (gen_random_digraph(80, p, seed), d, seed)
        for p in (0.99, 0.95) for seed in range(4) for d in (1, 2, 9)
    ]
    cases += [(gen_random_digraph(300, 0.7, 5), d, seed) for seed in range(4) for d in (1, 2, 3)]
    ends = {True: set(), False: set()}
    for D, d, seed in cases:
        handed.clear()
        K = _grown_or_none(D, d, seed)
        assert K is not None and K == oracle_grow_d_cover(D, d, seed)
        ends[bool(handed)].add(len(K) % 8)
    assert ends[True] | ends[False] == set(range(8)) and ends[True] and ends[False]


def test_grow_cover_cuts_a_first_group_without_the_diagonal():
    # the first 5 pairs cover every (x, y) with x != y, and pair 6 is the
    # first to cover some (x, x), which no pair needs to
    missing = {
        (0, 3), (1, 2), (1, 7), (2, 5), (2, 7), (4, 11), (5, 10), (5, 11), (6, 7), (6, 10), (7, 2),
        (7, 11), (8, 4), (8, 7), (8, 9), (8, 10), (9, 3), (10, 5), (10, 6), (10, 8), (10, 11),
        (11, 0), (11, 2),
    }
    D = Digraph(12, [(u, v) for u in range(12) for v in range(12) if u != v and (u, v) not in missing])
    K = build_d_cover(D, 1, 652)
    assert len(K) == 5 and K.pairs == oracle_grow_d_cover(D, 1, 652)


def test_grow_cover_matches_the_dense_reference_on_a_threshold_digraph():
    # arc u -> v iff rank(u) + rank(v) >= 0.85 n, plus 2 % noise: at seed 0
    # the pair stream runs out, at seed 3 it covers
    D = threshold_digraph(400, 0)
    assert _grown_or_none(D, 3, 0) is None is oracle_grow_d_cover(D, 3, 0)
    D = threshold_digraph(400, 3)
    K = _grown_or_none(D, 3, 3)
    assert K is not None and K == oracle_grow_d_cover(D, 3, 3)


def test_grow_cover_matches_the_dense_reference_over_a_long_tail():
    # only 1 and 2 reach vertex 0, so (0, y) waits for both to lead a pair,
    # which at seed 1161 happens at pair 257; the list of short entries is
    # not shrunk below 1024, so entries covered early stay in it and have
    # counted 256 pairs by then, one past what a byte holds
    M = ~np.eye(600, dtype=bool)
    M[3:, 0] = False
    D = Digraph(600, np.argwhere(M))
    K = build_d_cover(D, 1, 1161)
    assert len(K) == 257
    assert K.pairs == oracle_grow_d_cover(D, 1, 1161)


@pytest.mark.parametrize("d", [127, 256])
def test_grow_cover_counts_past_one_byte(d):
    # every count passes 255 on the complete digraph: at d = 127 the dense
    # counts must be clamped, and at d = 256 they must be wider than a byte
    D = complete_digraph(600)
    K = build_d_cover(D, d, 0)
    assert len(K) > d
    assert K.pairs == oracle_grow_d_cover(D, d, 0)


def _least_prefix_by_recount(w, count, d):
    """The least m whose first m pairs of a group leave every count at
    least d, each count recounted without the group's later pairs."""
    before = count.astype(np.int64) - np.bitwise_count(w)
    return next(
        m for m in range(9)
        if (before + np.bitwise_count(w & ((1 << m) - 1)) >= d).all()
    )


def test_the_rank_table_matches_a_recount_of_every_byte():
    for w in range(256):
        bits = [i for i in range(8) if w >> i & 1]
        assert _RANK[w, 0] == 0
        for k in range(1, 9):
            assert _RANK[w, k] == (bits[k - 1] + 1 if k <= len(bits) else 0), (w, k)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_the_needed_prefix_matches_a_recount_of_every_single_entry(dtype):
    # every byte with every count it can leave after a completing group:
    # from d (or popcount(w), if more) to d + 8, past which nothing is
    # needed; d + 8 passes a signed 16-bit range at d = 2**15 - 1
    for d in (1, 3, 250, 2**15 - 1) if dtype == np.uint16 else (1, 3, 120):
        for w in range(256):
            for c in range(max(d, w.bit_count()), d + 9):
                w1, c1 = np.array([w], dtype=np.uint8), np.array([c], dtype=dtype)
                assert _prefix_needed(w1, c1, d) == _least_prefix_by_recount(w1, c1, d)


def test_the_needed_prefix_matches_a_recount_over_random_lists_and_blocks():
    rng = np.random.default_rng(40)
    for _ in range(300):
        shape = rng.choice([1, 7, 1000]), rng.choice([1, 3, 30])
        d = int(rng.choice([1, 2, 3, 9, 127, 300, 2**15 - 1]))
        dtype = np.uint8 if d < 128 else np.uint16
        w = rng.integers(0, 256, shape, dtype=np.uint8)
        # every count after a completing group is at least d
        count = (d + rng.integers(0, 12, shape)).astype(dtype)
        assert _prefix_needed(w, count, d) == _least_prefix_by_recount(w, count, d)


@pytest.mark.parametrize("n, d", [(8, 1), (12, 2), (16, 6), (24, 7), (24, 10)])
def test_a_cover_of_a_complete_digraph_completes_in_the_dense_count(n, d, monkeypatch):
    # an ordered pair meets at most two of the disjoint pairs, so on the
    # complete digraph d + 2 pairs are the least d-cover; at these n more
    # than n^2/64 entries are short until the group that completes the
    # cover, the first (d <= 6) or the second (1 or 4 pairs of it at d = 7
    # and 10), so its cut reads the dense count
    def not_handed_over(*args):
        raise AssertionError("the count left the dense matrix")

    monkeypatch.setattr(cover_module, "_short_entries", not_handed_over)
    D = complete_digraph(n)
    for seed in range(3):
        K = build_d_cover(D, d, seed)
        assert len(K) == d + 2 and K.pairs == oracle_grow_d_cover(D, d, seed)


def test_cover_memory_stays_within_a_few_matrix_sizes():
    # numpy reports its buffers to tracemalloc; the matrix itself is n^2 bytes
    n = 2000
    D = gen_random_digraph(n, 0.7, 0)
    tracemalloc.start()
    try:
        K = build_d_cover(D, 3, 0)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert verify_d_cover(D, K, 3)
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak <= 2.5 * n * n
    assert verify_peak <= 2 * n * n


def test_shortest_path_avoiding_basics():
    # 0 -> 2 -> 1 plus a long detour 0 -> 3 -> 4 -> 1
    D = Digraph(5, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    rng = random.Random(0)
    assert shortest_path_avoiding(D, 0, 1, free_mask(5), 3, rng) == (0, 2, 1)
    assert shortest_path_avoiding(D, 0, 1, free_mask(5, {2}), 3, rng) is None
    assert shortest_path_avoiding(D, 0, 1, free_mask(5, {2}), 4, rng) == (0, 3, 4, 1)
    assert shortest_path_avoiding(D, 0, 1, free_mask(5), 2, rng) is None  # no direct arc
    assert shortest_path_avoiding(D, 0, 0, free_mask(5), 4, rng) is None
    # the ends need not be free
    assert shortest_path_avoiding(D, 0, 1, free_mask(5, {0, 1}), 3, rng) == (0, 2, 1)
    # a tie is drawn by the rng, so both middles turn up
    two_ways = Digraph(4, [(0, 3), (3, 1), (0, 2), (2, 1)])
    routes = {shortest_path_avoiding(two_ways, 0, 1, free_mask(4), 3, rng) for _ in range(40)}
    assert routes == {(0, 2, 1), (0, 3, 1)}


def test_shortest_path_avoiding_draws_nothing_for_an_arc():
    # the search's first test returns the one-arc path, before any walk back
    D = Digraph(3, [(0, 1), (0, 2), (2, 1)])
    rng = random.Random(5)
    state = rng.getstate()
    assert shortest_path_avoiding(D, 0, 1, free_mask(3), 3, rng) == (0, 1)
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "s, t",
    [(-1, 1), (4, 1), (5, 1), (0, -1), (0, 4)],
    ids=["negative-s", "s-is-n", "s-above-n", "negative-t", "t-is-n"],
)
def test_shortest_path_avoiding_rejects_labels_outside_the_digraph(s, t):
    # numpy would wrap -1 to row n-1 and route (-1, 1) as (-1, 0, 1)
    D = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(LabelOutOfRange):
        shortest_path_avoiding(D, s, t, free_mask(4), 4, random.Random(0))


def test_shortest_path_is_genuinely_shortest():
    rng = random.Random(13)
    for trial in range(150):
        n = rng.randrange(5, 15)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.15, 0.5)))
        s, t = rng.sample(range(n), 2)
        blocked = set(rng.sample(range(n), rng.randrange(0, 3))) - {s, t}
        # walked back by two seeded rngs, as the absorber routes
        found = [shortest_path_avoiding(D, s, t, free_mask(n, blocked), 6, random.Random(seed))
                 for seed in (trial, -1 - trial)]
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
    with pytest.raises(ConstructionFailed, match="^ladder #0: no arc 0->2 for a k=0 ladder$"):
        # no arc 0->2 in a directed cycle, and k=0 demands one
        build_disjoint_ladders(directed_cycle(6), [(0, 2)], 1, seed=0, ladder_k=0)
    with pytest.raises(BadParameter):
        build_disjoint_ladders(complete_digraph(10), [(0, 1), (1, 2)], 1, seed=0)
    with pytest.raises(ConstructionFailed, match="^ladder #0: k=3 violates the nu=1 "):
        # a k=3 ladder needs two rows of 7, 14 row vertices; nu=1 caps them
        # at 8/nu = 8, so the row cap refuses it
        build_disjoint_ladders(complete_digraph(40), [(0, 1)], 1, seed=0, ladder_k=3)
