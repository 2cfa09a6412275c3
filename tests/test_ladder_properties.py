"""Property tests for validate_ladder: on small digraphs it agrees with
the arc-skeleton definition checker in helpers, for random well-formed
ladders, ladders with a repeated vertex, single shape defects of them,
and the ladders build_disjoint_ladders returns at k = 1 and 2."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dilink import Digraph, Ladder, build_disjoint_ladders, gen_random_digraph, validate_ladder
from dilink.errors import ConstructionFailed

from helpers import ladder_skeleton, oracle_ladder

DEFECTS = (
    "short row", "even rows", "extra key", "missing key", "short connector",
    "connector start", "connector end", "minus one", "n",
)


def relabel(L: Ladder, x: int, y: int) -> Ladder:
    """L with vertex x replaced by y in the rows and the connectors."""
    swap = lambda seq: tuple(y if v == x else v for v in seq)
    return Ladder(swap(L.lower), swap(L.upper), {i: swap(q) for i, q in L.connectors.items()})


@st.composite
def well_formed(draw, n, k, repeat=False):
    """Rows of length 2k+1 and a connector for each odd index, with
    0-2 interior vertices each, on distinct labels of 0..n-1; with
    repeat, one vertex is then relabelled to another of the ladder."""
    labels = iter(draw(st.permutations(range(n))))
    lower = [next(labels) for _ in range(2 * k + 1)]
    upper = [next(labels) for _ in range(2 * k + 1)]
    left = n - (4 * k + 2)
    connectors = {}
    for i in range(1, 2 * k, 2):
        m = draw(st.integers(0, min(2, left)))
        left -= m
        connectors[i] = (lower[i], *(next(labels) for _ in range(m)), upper[i])
    L = Ladder(tuple(lower), tuple(upper), connectors)
    if repeat:
        vs = st.sampled_from(sorted(L.vertices()))
        x, y = draw(st.lists(vs, min_size=2, max_size=2, unique=True))
        L = relabel(L, x, y)
    return L


@st.composite
def defective(draw, L, n):
    """One shape defect in L: a wrong row length, wrong connector keys
    or ends, or one vertex relabelled to -1 or to n; a connector defect
    drawn for a ladder without connectors leaves it as it is."""
    lo, up, Q = list(L.lower), list(L.upper), dict(L.connectors)
    kind = draw(st.sampled_from(DEFECTS))
    odd = draw(st.sampled_from(sorted(Q))) if Q else None
    if kind == "short row":
        lo.pop()
    elif kind == "even rows":
        lo.pop(), up.pop()
    elif kind == "extra key":
        Q[len(lo)] = (lo[0], up[0])
    elif kind == "missing key" and Q:
        del Q[odd]
    elif kind == "short connector" and Q:
        Q[odd] = (lo[odd],)
    elif kind in ("connector start", "connector end") and Q:
        q = list(Q[odd])
        q[0 if kind == "connector start" else -1] = draw(st.integers(-1, n))
        Q[odd] = tuple(q)
    elif kind in ("minus one", "n"):
        x = draw(st.sampled_from(sorted(L.vertices())))
        return relabel(L, x, -1 if kind == "minus one" else n)
    return Ladder(tuple(lo), tuple(up), Q)


@st.composite
def cases(draw):
    """A digraph on n <= 12 vertices and the ladders of one kind to check
    in it.  A drawn ladder has k = 0, 1 or 2, and the digraph holds the ladder's skeleton
    (loops left out), less one arc on a coin flip, plus random arcs at
    density 0 to 1, and a defective ladder is drawn after the digraph.
    Built ladders, which need 4k + 2 vertices each, come from a dense
    D(n, p) with n >= 6, and none come when the builder fails."""
    kind = draw(st.sampled_from(["well-formed", "repeated vertex", "defective", "built"]))
    if kind == "built":
        n = draw(st.integers(6, 12))
        p = draw(st.sampled_from([0.8, 1.0]))
        D = gen_random_digraph(n, p, draw(st.integers(0, 999)))
        k = draw(st.sampled_from([1, 2] if n >= 10 else [1]))
        order = draw(st.permutations(range(n)))
        terminals = [(order[2 * i], order[2 * i + 1]) for i in range(draw(st.integers(1, 2)))]
        try:
            return D, build_disjoint_ladders(D, terminals, "1/2", draw(st.integers(0, 999)), k)
        except ConstructionFailed as e:
            assert "ladder #" in str(e)
            return D, []
    k = draw(st.integers(0, 2))
    n = draw(st.integers(4 * k + 2, 12))
    L = draw(well_formed(n, k, repeat=kind == "repeated vertex"))
    skeleton = sorted({(a, b) for a, b in ladder_skeleton(L) if a != b})
    pick = random.Random(draw(st.integers(0, 2**32 - 1)))  # uniform, unlike st.sampled_from
    missing = {pick.choice(skeleton)} if skeleton and pick.random() < 0.5 else set()
    p = draw(st.sampled_from([0, 0.3, 0.7, 1]))
    noise = gen_random_digraph(n, p, draw(st.integers(0, 999)))
    D = Digraph(n, (set(skeleton) | noise.arcs) - missing)
    return D, [draw(defective(L, n)) if kind == "defective" else L]


@settings(max_examples=400)  # a ladder short of one alternative arc is about 1 case in 40
@given(cases())
def test_validate_ladder_agrees_with_the_skeleton_definition(case):
    D, ladders = case
    for L in ladders:
        assert validate_ladder(D, L) == oracle_ladder(D, L)
