"""Property tests for the subdivision and tiling validators: random valid
instances and single-field corruptions of them, checked against the
definition checkers in helpers."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph, HSubdivision, pattern_from_arcs, validate_subdivision, validate_tiling

from helpers import PATTERN_SHAPES, oracle_subdivision, oracle_tiling

# two shapes with non-adjacent pattern vertices, whose images only
# injectivity keeps apart
SHAPES = {**PATTERN_SHAPES, "two-arc path": ((0, 1), (1, 2)), "out-star": ((0, 1), (0, 2))}
SHAPE = st.sampled_from(sorted(SHAPES))


@st.composite
def layouts(draw, tiles, spare):
    """A digraph and `tiles` vertex-disjoint subdivisions in it, of
    random shapes with 0-3 inner vertices per path, on shuffled labels.
    The digraph holds their arcs plus random ones at a random density,
    and up to `spare` vertices that no subdivision uses."""
    plans = []
    for _ in range(tiles):
        arcs = SHAPES[draw(SHAPE)]
        plans.append((arcs, [draw(st.integers(0, 3)) for _ in arcs]))
    used = sum(1 + max(map(max, arcs)) + sum(inner) for arcs, inner in plans)
    n = used + draw(st.integers(0, spare))
    labels = iter(draw(st.permutations(range(n))))
    subs, arc_set = [], set()
    for arcs, inner in plans:
        H = pattern_from_arcs(arcs)
        f = {a: next(labels) for a in range(H.underlying.n)}
        paths = {}
        for (a, b), k in zip(arcs, inner):
            paths[(a, b)] = (f[a], *(next(labels) for _ in range(k)), f[b])
            arc_set |= set(zip(paths[(a, b)], paths[(a, b)][1:]))
        subs.append(HSubdivision(H, f, paths))
    rnd, density = random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.floats(0, 1))
    arc_set |= {(u, v) for u in range(n) for v in range(n) if u != v and rnd.random() < density}
    return Digraph(n, arc_set), subs


FIELDS = ["pattern", "image", "drop-image", "drop-path", "stray-path",
          "relabel", "insert", "delete", "identify", "drop-arc"]
# corruptions after which no subdivision can be valid
ALWAYS_INVALID = {"drop-image", "drop-path", "stray-path", "identify", "drop-arc"}


def corrupt(data, D, sub, field):
    """(D, sub) with one field changed at random: the pattern, one
    branch image, one path (a label replaced, inserted or deleted, the
    whole path dropped or a stray one added), two of the subdivision's
    vertices identified wherever they occur, or one path arc of D."""
    f, paths, pattern = dict(sub.branch_map), dict(sub.paths), sub.pattern
    label = st.integers(-1, D.n)  # one beyond each end of the range
    arc = data.draw(st.sampled_from(sorted(paths)))
    p = list(paths[arc])
    if field == "pattern":
        pattern = pattern_from_arcs(SHAPES[data.draw(SHAPE)])
    elif field == "image":
        f[data.draw(st.sampled_from(sorted(f)))] = data.draw(label)
    elif field == "drop-image":
        del f[data.draw(st.sampled_from(sorted(f)))]
    elif field == "drop-path":
        del paths[arc]
    elif field == "stray-path":
        paths[(0, 0)] = (f[0],)  # a loop is never a pattern arc
    elif field == "identify":  # w becomes y, in the branch map and on every path
        pool = data.draw(st.sampled_from([sorted(f.values()), sorted(sub.vertices())]))
        w, y = data.draw(st.permutations(pool))[:2]
        f = {a: y if v == w else v for a, v in f.items()}
        paths = {a: tuple(y if v == w else v for v in q) for a, q in paths.items()}
    elif field == "drop-arc":
        i = data.draw(st.integers(0, len(p) - 2))
        D = Digraph(D.n, D.arcs - {(p[i], p[i + 1])})
    else:
        i = data.draw(st.integers(0, len(p) - 1))
        if field == "relabel":
            p[i] = data.draw(label)
        elif field == "insert":
            p.insert(i, data.draw(label))
        else:
            del p[i]
        paths[arc] = tuple(p)
    return D, HSubdivision(pattern, f, paths)


@given(st.data())
def test_validate_subdivision_agrees_with_the_definition(data):
    D, [sub] = data.draw(layouts(1, spare=3))
    assert validate_subdivision(D, sub) and oracle_subdivision(D, sub)
    for field in FIELDS:
        D2, bad = corrupt(data, D, sub, field)
        assert validate_subdivision(D2, bad) == oracle_subdivision(D2, bad)
        if field in ALWAYS_INVALID:
            assert not oracle_subdivision(D2, bad)


TILING_FIELDS = ["order", "drop-tile", "repeat-tile", "spare-vertex"]


@given(st.data())
def test_validate_tiling_agrees_with_the_definition(data):
    D, subs = data.draw(layouts(data.draw(st.integers(1, 3)), spare=0))
    orders = [len(s.vertices()) for s in subs]
    assert validate_tiling(D, subs, orders) and oracle_tiling(D, subs, orders)
    for field in TILING_FIELDS + FIELDS:
        D2, subs2, orders2 = D, list(subs), list(orders)
        i = data.draw(st.integers(0, len(subs) - 1))
        if field == "order":
            orders2[i] += data.draw(st.sampled_from([-1, 1]))
        elif field == "drop-tile":
            del subs2[i], orders2[i]
        elif field == "repeat-tile":
            subs2.append(subs[i])
            orders2.append(orders[i])
        elif field == "spare-vertex":
            D2 = Digraph(D.n + 1, D.arcs)
        else:
            D2, subs2[i] = corrupt(data, D, subs[i], field)
        assert validate_tiling(D2, subs2, orders2) == oracle_tiling(D2, subs2, orders2)
        if field in ALWAYS_INVALID or field in TILING_FIELDS:
            assert not oracle_tiling(D2, subs2, orders2)
