"""Property tests for d-covers: the matrix verifier against the
definition checker, and the cover builder's guarantees; for the router
against a breadth-first reference; and for the ladder builder's
guarantees at forced k >= 1."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import (
    Digraph,
    build_d_cover,
    build_disjoint_ladders,
    gen_random_digraph,
    shortest_path_avoiding,
    validate_ladder,
    verify_d_cover,
)
from dilink.errors import CoverConstructionFailed, LadderConstructionFailed

from helpers import oracle_d_cover, oracle_shortest_order


@st.composite
def digraphs(draw, max_n=10):
    n = draw(st.integers(4, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and bits[u * n + v]]
    return Digraph(n, arcs)


@given(st.data())
def test_verify_d_cover_agrees_with_the_definition(data):
    D = data.draw(digraphs())
    order = data.draw(st.permutations(range(D.n)))
    m = data.draw(st.integers(0, D.n // 2))
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(m)]
    U = data.draw(st.sets(st.integers(0, D.n - 1)))
    d = data.draw(st.integers(0, 3))
    assert verify_d_cover(D, pairs, U, d) == oracle_d_cover(D, pairs, U, d)


@st.composite
def dense_digraphs(draw, max_n=12):
    # complete digraphs less a few arcs, so that most instances have a cover
    n = draw(st.integers(4, max_n))
    vertex = st.integers(0, n - 1)
    gone = draw(st.sets(st.tuples(vertex, vertex), max_size=2 * n))
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in gone])


def _provably_none(D, d, usable):
    # the degree proof: too few usable vertices, or a vertex short of
    # d out- or in-neighbours outside avoid
    return 2 * d > len(usable) or any(
        len(set(D.out_neighbors(x)) & usable) < d or len(set(D.in_neighbors(x)) & usable) < d
        for x in range(D.n)
    )


@given(st.data())
def test_build_d_cover_returns_disjoint_pairs_of_the_exact_size(data):
    D = data.draw(dense_digraphs())
    avoid = data.draw(st.sets(st.integers(0, D.n - 1), max_size=D.n - 2))
    d = data.draw(st.integers(1, 2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    usable = set(range(D.n)) - avoid
    try:
        K = build_d_cover(D, d, seed, avoid=avoid)
    except CoverConstructionFailed as e:
        assert e.exact == _provably_none(D, d, usable)
        return
    flat = [v for p in K for v in p]
    assert all(len(p) == 2 for p in K)
    assert len(set(flat)) == len(flat) == 2 * len(K)
    assert set(flat) <= usable
    assert oracle_d_cover(D, K.pairs, range(D.n), d)
    assert build_d_cover(D, d, seed, avoid=avoid) == K  # the seed fixes the pairs


@given(st.data())
def test_grow_d_cover_stops_at_the_shortest_covering_prefix(data):
    # build_d_cover grows its cover pair by pair and stops once it covers
    D = data.draw(dense_digraphs())
    avoid = data.draw(st.sets(st.integers(0, D.n - 1), max_size=D.n // 2))
    d = data.draw(st.integers(1, 2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    usable = set(range(D.n)) - avoid
    provably_none = _provably_none(D, d, usable)
    try:
        K = build_d_cover(D, d, seed, avoid=avoid)
    except CoverConstructionFailed as e:
        assert e.exact == provably_none  # a proof exactly when the degrees give one
        return
    assert not provably_none
    flat = [v for p in K for v in p]
    assert len(set(flat)) == len(flat)
    assert set(flat) <= usable
    prefixes = (K.pairs[:-1], K.pairs)
    covered = [oracle_d_cover(D, P, range(D.n), d) for P in prefixes]
    assert covered == [False, True]  # the shortest covering prefix
    assert [verify_d_cover(D, P, None, d) for P in prefixes] == covered


@given(st.data())
def test_shortest_path_avoiding_agrees_with_a_breadth_first_reference(data):
    D = data.draw(digraphs(max_n=12))
    s, t = data.draw(st.lists(st.integers(0, D.n - 1), min_size=2, max_size=2, unique=True))
    blocked = data.draw(st.sets(st.integers(0, D.n - 1)))  # may hold s or t
    max_order = data.draw(st.integers(2, 6))
    seed = data.draw(st.none() | st.integers(0, 2**32 - 1))
    rng = None if seed is None else random.Random(seed)
    got = shortest_path_avoiding(D, s, t, blocked, max_order, rng)
    best = oracle_shortest_order(D, s, t, blocked)
    if best is None or best > max_order:
        assert got is None
        return
    assert got is not None and len(got) == best
    assert (got[0], got[-1]) == (s, t) and len(set(got)) == len(got)
    assert all((a, b) in D.arcs for a, b in zip(got, got[1:]))
    assert not set(got[1:-1]) & blocked
    if rng is None:  # without an rng the route is fixed
        assert shortest_path_avoiding(D, s, t, blocked, max_order) == got


@given(st.data())
def test_build_disjoint_ladders_at_forced_k_meets_its_bounds(data):
    n = data.draw(st.integers(20, 60))
    D = gen_random_digraph(n, data.draw(st.floats(0.5, 0.9)), data.draw(st.integers(0, 999)))
    k = data.draw(st.sampled_from([1, 2]))
    nu = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]))
    order = data.draw(st.permutations(range(n)))
    m = data.draw(st.integers(1, 4))
    terminals = [(order[2 * i], order[2 * i + 1]) for i in range(m)]
    avoid = set(data.draw(st.sets(st.sampled_from(order[2 * m:]), max_size=n // 3)))
    try:
        ladders = build_disjoint_ladders(D, terminals, nu, data.draw(st.integers(0, 999)), k, avoid)
    except LadderConstructionFailed:
        return
    seen = set(avoid)
    for (u, v), L in zip(terminals, ladders, strict=True):
        assert validate_ladder(D, L) and (L.start, L.end) == (u, v) and L.k == k
        assert not L.vertices() & seen
        seen |= L.vertices()
        assert len(L.vertices()) <= 12 / nu**2
        assert len(L.lower) + len(L.upper) <= 8 / nu
