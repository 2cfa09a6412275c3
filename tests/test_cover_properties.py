"""Property tests for d-covers: the matrix verifier against the
definition checker, and the sampler's and the grower's guarantees."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph, build_d_cover, grow_d_cover, verify_d_cover
from dilink.errors import CoverConstructionFailed

from helpers import oracle_d_cover


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


@given(st.data())
def test_build_d_cover_returns_disjoint_pairs_of_the_exact_size(data):
    D = data.draw(digraphs(max_n=12))
    avoid = data.draw(st.sets(st.integers(0, D.n - 1), max_size=D.n - 2))
    size = data.draw(st.integers(1, (D.n - len(avoid)) // 2))
    U = data.draw(st.sets(st.integers(0, D.n - 1)))
    d = data.draw(st.integers(0, 2))  # d = 0 always verifies
    seed = data.draw(st.integers(0, 2**32 - 1))
    try:
        K = build_d_cover(D, U, d, 0.5, seed, size=size, avoid=avoid)
    except CoverConstructionFailed:
        assert d > 0
        return
    flat = [v for p in K for v in p]
    assert len(K) == size
    assert len(set(flat)) == len(flat) == 2 * size
    assert set(flat) <= set(range(D.n)) - avoid
    assert oracle_d_cover(D, K.pairs, U, d)


@st.composite
def dense_digraphs(draw, max_n=12):
    # complete digraphs less a few arcs, so that most instances have a cover
    n = draw(st.integers(4, max_n))
    vertex = st.integers(0, n - 1)
    gone = draw(st.sets(st.tuples(vertex, vertex), max_size=2 * n))
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in gone])


@given(st.data())
def test_grow_d_cover_stops_at_the_shortest_covering_prefix(data):
    D = data.draw(dense_digraphs())
    avoid = data.draw(st.sets(st.integers(0, D.n - 1), max_size=D.n // 2))
    d = data.draw(st.integers(1, 2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    usable = set(range(D.n)) - avoid
    provably_none = 2 * d > len(usable) or any(
        len(set(D.out_neighbors(x)) & usable) < d or len(set(D.in_neighbors(x)) & usable) < d
        for x in range(D.n)
    )
    try:
        K = grow_d_cover(D, d, seed, avoid=avoid)
    except CoverConstructionFailed as e:
        assert e.exact == provably_none  # a proof exactly when the degrees give one
        return
    flat = [v for p in K for v in p]
    assert len(set(flat)) == len(flat)
    assert not set(flat) & avoid
    assert oracle_d_cover(D, K.pairs, range(D.n), d)
    assert not oracle_d_cover(D, K.pairs[:-1], range(D.n), d)
    # the same pairing as build_d_cover's: its first len(K) pairs are K
    assert build_d_cover(D, None, d, 0.5, seed, size=len(K), avoid=avoid) == K
