"""Property tests for d-covers: the matrix verifier against the
definition checker, and the sampler's shape guarantees."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph, build_d_cover, verify_d_cover
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
