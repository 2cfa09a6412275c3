import random
from fractions import Fraction

import pytest

from dilink import (
    Digraph,
    HSubdivision,
    brute_force_subdivision,
    complete_digraph,
    gen_random_digraph,
    min_prescribed_length,
    path_lengths,
    pattern_from_arcs,
    single_arc_pattern,
    subdivision_order,
    triangle_pattern,
    validate_subdivision,
    validate_tiling,
)
from dilink.errors import BadParameter

from helpers import random_arc_set


def test_pattern_basics():
    H = triangle_pattern()
    assert H.h == 3
    assert H.arc_order == ((0, 1), (1, 2), (2, 0))
    assert single_arc_pattern().arc_order == ((0, 1),)
    with pytest.raises(BadParameter):
        pattern_from_arcs([])
    with pytest.raises(BadParameter, match="^pattern needs at least one arc"):
        from dilink import PatternDigraph

        PatternDigraph(Digraph(3, []))
    # isolated pattern vertices are rejected
    with pytest.raises(BadParameter):
        from dilink import PatternDigraph

        PatternDigraph(Digraph(3, [(0, 1)]))


def test_prescribed_lengths_are_counts():
    # any sequence of whole numbers >= 1 serves, 3.0 read as 3
    D, H, f = complete_digraph(5), single_arc_pattern(), {0: 0, 1: 1}
    got = brute_force_subdivision(D, H, f, [3.0])
    assert path_lengths(got) == (3,) and validate_subdivision(D, got)
    with pytest.raises(BadParameter, match="^every prescribed length must be >= 1"):
        brute_force_subdivision(D, H, f, (0,))


def test_min_length_floor_frozen_values():
    # ceil(24/nu^2 + 4/nu + 2) at pinned parameter values
    assert min_prescribed_length(1) == 30
    assert min_prescribed_length("3/4") == 50
    assert min_prescribed_length("9/10") == 37
    assert min_prescribed_length(Fraction(1, 2)) == 106
    # 30 is the global minimum over nu
    assert all(
        min_prescribed_length(Fraction(i, 40)) >= 30 for i in range(1, 41)
    )
    with pytest.raises(BadParameter):
        min_prescribed_length(0)


def _triangle_instance():
    # branch 0,1,2; paths 0-3-1, 1-4-2, 2-5-0 inside an explicit digraph
    D = Digraph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    sub = HSubdivision(
        triangle_pattern(),
        {0: 0, 1: 1, 2: 2},
        {(0, 1): (0, 3, 1), (1, 2): (1, 4, 2), (2, 0): (2, 5, 0)},
    )
    return D, sub


def test_validate_subdivision_accepts_hand_instance():
    D, sub = _triangle_instance()
    assert validate_subdivision(D, sub)
    assert path_lengths(sub) == (2, 2, 2)
    assert subdivision_order(sub) == 6
    assert sub.vertices() == frozenset(range(6))


def test_validate_subdivision_rejects_defects():
    D, sub = _triangle_instance()
    # wrong endpoint
    bad = HSubdivision(sub.pattern, sub.branch_map, dict(sub.paths) | {(0, 1): (0, 3, 4)})
    assert not validate_subdivision(D, bad)
    # interior vertex shared between two paths
    bad2 = HSubdivision(
        sub.pattern,
        sub.branch_map,
        dict(sub.paths) | {(1, 2): (1, 3, 2)},
    )
    assert not validate_subdivision(Digraph(6, set(D.arcs) | {(1, 3), (3, 2)}), bad2)
    # missing path for an arc
    paths = dict(sub.paths)
    del paths[(2, 0)]
    assert not validate_subdivision(D, HSubdivision(sub.pattern, sub.branch_map, paths))
    # non-injective branch map
    assert not validate_subdivision(
        D, HSubdivision(sub.pattern, {0: 0, 1: 0, 2: 2}, sub.paths)
    )
    # an arc missing from the host digraph
    D2 = Digraph(6, set(D.arcs) - {(4, 2)})
    assert not validate_subdivision(D2, sub)


def test_branch_vertex_cannot_sit_inside_another_path():
    # path for (0,1) passes through branch image 2
    D = Digraph(3, [(0, 2), (2, 1), (1, 2), (2, 0), (0, 1)])
    sub = HSubdivision(
        triangle_pattern(),
        {0: 0, 1: 1, 2: 2},
        {(0, 1): (0, 2, 1), (1, 2): (1, 2), (2, 0): (2, 0)},
    )
    assert not validate_subdivision(D, sub)


def test_validate_tiling():
    D = Digraph(6, [(0, 3), (3, 1), (1, 0), (2, 4), (4, 5), (5, 2)])
    H = pattern_from_arcs([(0, 1), (1, 0)])
    t1 = HSubdivision(H, {0: 0, 1: 1}, {(0, 1): (0, 3, 1), (1, 0): (1, 0)})
    t2 = HSubdivision(H, {0: 2, 1: 5}, {(0, 1): (2, 4, 5), (1, 0): (5, 2)})
    assert validate_tiling(D, [t1, t2], [4, 4]) is False
    assert validate_tiling(D, [t1, t2], [3, 3])
    # not a partition: drop one tile
    assert not validate_tiling(D, [t1], [3])
    # overlapping tiles
    assert not validate_tiling(D, [t1, t1], [3, 3])


def test_brute_force_finds_and_validates():
    D = complete_digraph(6)
    H = triangle_pattern()
    sub = brute_force_subdivision(D, H, {0: 0, 1: 1, 2: 2}, (2, 2, 1))
    assert sub is not None
    assert validate_subdivision(D, sub)
    assert path_lengths(sub) == (2, 2, 1)
    assert dict(sub.branch_map) == {0: 0, 1: 1, 2: 2}


def test_brute_force_reports_absence():
    # a directed 4-cycle has no length-2 path from 0 to 1 (only 0->1)
    from dilink import directed_cycle

    D = directed_cycle(4)
    H = single_arc_pattern()
    assert brute_force_subdivision(D, H, {0: 0, 1: 1}, (2,)) is None
    assert brute_force_subdivision(D, H, {0: 0, 1: 1}, (1,)) is not None


def test_brute_force_guards():
    H = single_arc_pattern()
    with pytest.raises(BadParameter, match="n=13 exceeds the oracle cap 12"):
        brute_force_subdivision(complete_digraph(13), H, {0: 0, 1: 1}, (1,))
    with pytest.raises(BadParameter):
        brute_force_subdivision(complete_digraph(5), H, {0: 0, 1: 1}, (1, 1))
    with pytest.raises(BadParameter):
        brute_force_subdivision(complete_digraph(5), H, {0: 0, 1: 0}, (1,))
    with pytest.raises(BadParameter):
        brute_force_subdivision(complete_digraph(5), H, {0: 0}, (1,))


def test_brute_force_result_always_validates_on_random_instances():
    rng = random.Random(5150)
    H = pattern_from_arcs([(0, 1), (1, 0)])
    found = 0
    for _ in range(120):
        n = rng.randrange(4, 8)
        D = Digraph(n, random_arc_set(rng, n, rng.uniform(0.3, 0.8)))
        f = {0: 0, 1: 1}
        lengths = (rng.randrange(1, 4), rng.randrange(1, 4))
        sub = brute_force_subdivision(D, H, f, lengths)
        if sub is not None:
            found += 1
            assert validate_subdivision(D, sub)
            assert path_lengths(sub) == lengths
            # order bookkeeping: interior vertices per path, plus each
            # branch vertex counted once
            branch = len(set(sub.branch_map.values()))
            assert subdivision_order(sub) == sum(l - 1 for l in lengths) + branch
    assert found > 30
