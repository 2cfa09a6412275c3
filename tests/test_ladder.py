import random

import pytest

from dilink import (
    Digraph,
    HSubdivision,
    Ladder,
    absorb_path,
    alternative_rung_paths,
    complete_digraph,
    ladder_on_path,
    rung_paths,
    single_arc_ladder,
    single_arc_pattern,
    validate_ladder,
)
from dilink.errors import BadParameter

from helpers import make_ladder_instance

# absorb_path's refusals, told apart by message
NO_ARC = r"pattern arc \(\d+, \d+\) not present in subdivision"
NOT_A_PATH = "absorbee is not a valid path of the host digraph"
WRONG_ENDS = r"path runs \d+\.\.\d+, ladder expects \d+\.\.\d+"
NO_RUNG = r"rung \(.*\) is not a contiguous subpath of the host path"
MEETS = "absorbee interior reuses subdivision vertices"


def _hand_k1():
    """Explicit k=1 ladder: rows 0,1,2 / 3,4,5, connector 1-6-4."""
    arcs = [
        (0, 1), (2, 1),          # lower zig-zag
        (4, 3), (4, 5),          # upper zig-zag
        (2, 5),                  # final arc v_2 -> v_2*
        (1, 6), (6, 4),          # connector Q_1
    ]
    D = Digraph(7, arcs)
    L = Ladder((0, 1, 2), (3, 4, 5), {1: (1, 6, 4)})
    return D, L


def test_hand_ladder_validates():
    D, L = _hand_k1()
    assert L.k == 1
    assert L.start == 0 and L.end == 3
    assert validate_ladder(D, L)
    assert L.vertices() == frozenset(range(7))


def test_rungs_and_alternatives():
    D, L = _hand_k1()
    assert rung_paths(L) == ((0, 1, 6, 4, 3), (2, 5))
    assert alternative_rung_paths(L) == ((2, 1, 6, 4, 5),)
    assert rung_paths(single_arc_ladder(8, 9)) == ((8, 9),)
    assert alternative_rung_paths(single_arc_ladder(0, 1)) == ()


def test_validate_ladder_rejects_defects():
    D, L = _hand_k1()
    # missing final arc
    D2 = Digraph(7, set(D.arcs) - {(2, 5)})
    assert not validate_ladder(D2, L)
    # connector endpoints must be the odd row entries
    assert not validate_ladder(D, Ladder((0, 1, 2), (3, 4, 5), {1: (6, 4)}))
    # repeated vertex across rows
    assert not validate_ladder(D, Ladder((0, 1, 2), (3, 4, 0), {1: (1, 6, 4)}))
    # row length must be odd (2k+1)
    assert not validate_ladder(D, Ladder((0, 1), (3, 4), {1: (1, 6, 4)}))
    # wrong connector keys
    assert not validate_ladder(D, Ladder((0, 1, 2), (3, 4, 5), {}))


def test_ladder_on_path_and_embedding_lookup():
    D, L = _hand_k1()
    # both rungs contiguous, back to back
    path = (0, 1, 6, 4, 3) + (2, 5)
    assert ladder_on_path(L, path)
    assert not ladder_on_path(L, (0, 1, 6, 4))  # second rung missing
    assert ladder_on_path(L, (9, 2, 5, 0, 1, 6, 4, 3))  # rungs in either order
    assert not ladder_on_path(L, (0, 1, 6, 3, 4, 2, 5))  # first rung broken up


def _absorb_into_path(D, host, L, P):
    """Absorb P into a bare host path: the one path of a subdivided arc."""
    sub = HSubdivision(single_arc_pattern(), {0: host[0], 1: host[-1]}, {(0, 1): host})
    return absorb_path(D, sub, L, (0, 1), P).paths[(0, 1)]


def test_absorb_into_path_hand_case():
    D, L = _hand_k1()
    # host: both rungs contiguous; absorbee 0 -> 7 -> 3 with fresh 7
    arcs = set(D.arcs) | {(5, 0), (0, 7), (7, 3), (9, 0), (3, 8)}
    D3 = Digraph(10, arcs)
    host = (9, 0, 1, 6, 4, 3, 8)
    # host must contain ALL rungs; (2,5) is missing
    with pytest.raises(BadParameter, match=r"^rung \(2, 5\) is not a contiguous"):
        _absorb_into_path(D3, host, L, (0, 7, 3))


def test_absorb_into_path_full_hand_case():
    D, L = _hand_k1()
    arcs = set(D.arcs) | {(0, 7), (7, 3), (9, 0), (10, 9), (3, 2), (5, 8)}
    D4 = Digraph(11, arcs)
    host = (10, 9, 0, 1, 6, 4, 3, 2, 5, 8)
    out = _absorb_into_path(D4, host, L, (0, 7, 3))
    # R_0 became the absorbee, R_2 its alternative, nothing else moved
    assert out == (10, 9, 0, 7, 3, 2, 1, 6, 4, 5, 8)
    assert set(out) == set(host) | {7}


def test_absorb_errors():
    D, L = _hand_k1()
    arcs = set(D.arcs) | {(0, 7), (7, 3), (3, 2), (5, 8), (9, 0), (10, 9), (0, 9), (9, 3)}
    D4 = Digraph(11, arcs)
    host = (10, 9, 0, 1, 6, 4, 3, 2, 5, 8)
    with pytest.raises(BadParameter, match="^path runs 7..3, ladder expects 0..3$"):
        _absorb_into_path(D4, host, L, (7, 3))
    with pytest.raises(BadParameter, match=NOT_A_PATH):
        _absorb_into_path(D4, host, L, (0, 8, 3))  # nonexistent arcs
    with pytest.raises(BadParameter, match=MEETS + r" \[9\]"):
        _absorb_into_path(D4, host, L, (0, 9, 3))  # 9 already on host


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_random_ladders_satisfy_the_swap_disjointness_facts(k):
    """The rung (and alternative-rung) families are pairwise disjoint,
    cover the ladder together with its endpoints, and each alternative's
    interior only touches the rung it is about to vacate — the facts the
    one-by-one swap argument leans on."""
    rng = random.Random(7700 + k)
    for _ in range(25):
        _, _, L, _, _ = make_ladder_instance(rng, k)
        rungs = rung_paths(L)
        alts = alternative_rung_paths(L)
        for fam in (rungs, alts):
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    assert not set(fam[i]) & set(fam[j])
        covered = {v for r in rungs for v in r} | {v for a in alts for v in a}
        assert covered | {L.start, L.end} == L.vertices()
        # alternative t replaces rung t; its interior must avoid every
        # rung not yet swapped out and every alternative already in place
        for t in range(1, len(rungs)):
            blocked = {v for r in rungs[t:] for v in r}
            blocked |= {v for a in alts[: t - 1] for v in a}
            assert not set(alts[t - 1][1:-1]) & blocked


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_randomized_swaps_preserve_the_vertex_ledger(k):
    rng = random.Random(1000 + k)
    for _ in range(40):
        D, sub, L, arc, P = make_ladder_instance(rng, k)
        before = sub.vertices()
        out = absorb_path(D, sub, L, arc, P)
        from dilink import validate_subdivision

        assert validate_subdivision(D, out)
        assert dict(out.branch_map) == dict(sub.branch_map)
        assert out.vertices() == before | set(P)
        # only the host arc's path changed ...
        for a, p in sub.paths.items():
            if a != arc:
                assert out.paths[a] == p
        # ... and it grew by exactly the swap ledger: P and the
        # alternatives came in, the original rungs went out
        swapped_in = len(P) if L.k == 0 else len(P) + sum(
            len(a) for a in alternative_rung_paths(L)
        )
        growth = swapped_in - sum(len(r) for r in rung_paths(L))
        assert len(out.paths[arc]) - len(sub.paths[arc]) == growth
        assert growth == len(set(P) - before)


def test_absorb_path_rejects_interior_collisions_with_other_paths():
    rng = random.Random(99)
    D, sub, L, arc, P = make_ladder_instance(rng, 1, shape="triangle")
    if len(P) <= 2:
        P = None
    # steal an interior vertex from a different path
    other_arcs = [a for a in sub.paths if a != arc]
    victim = sub.paths[other_arcs[0]]
    mid = victim[1]
    bad = (P or (L.start, L.end))[:1] + (mid,) + (L.end,)
    arcs = set(D.arcs) | {(bad[0], mid), (mid, bad[-1])}
    D2 = Digraph(D.n, arcs)
    with pytest.raises(BadParameter, match=MEETS):
        absorb_path(D2, sub, L, arc, bad)


def test_absorb_path_checks_in_order():
    """Each bad absorbee below also meets another subdivided path, so only
    the check order decides which error is raised."""
    D, sub, L, arc, _ = make_ladder_instance(random.Random(99), 1, shape="triangle")
    mid = sub.paths[next(a for a in sub.paths if a != arc)][1]
    y = next(v for v in range(D.n) if v not in (L.start, L.end, mid))
    D2 = Digraph(D.n, set(D.arcs) | {(L.start, mid), (mid, L.end), (mid, y)})
    cases = [
        (NO_ARC, (7, 8), L, (L.start, mid, mid, L.end)),  # unknown arc first
        (NOT_A_PATH, arc, L, (L.start, mid, mid, L.end)),  # then a repeated vertex
        (WRONG_ENDS, arc, L, (L.start, mid, y)),  # then the wrong end
        (NO_RUNG, arc, single_arc_ladder(L.start, L.end), (L.start, mid, L.end)),
        (MEETS, arc, L, (L.start, mid, L.end)),  # last, the interior
    ]
    for message, a, ladder, P in cases:
        with pytest.raises(BadParameter, match=f"^{message}"):
            absorb_path(D2, sub, ladder, a, P)


def test_absorb_path_requires_known_host_arc():
    rng = random.Random(5)
    D, sub, L, _, P = make_ladder_instance(rng, 0, shape="arc")
    with pytest.raises(BadParameter, match=r"^pattern arc \(7, 8\) not present"):
        absorb_path(D, sub, L, (7, 8), P)


def test_single_arc_swap_on_complete_digraph():
    D = complete_digraph(8)
    L = single_arc_ladder(0, 1)
    host = (5, 0, 1, 6)
    out = _absorb_into_path(D, host, L, (0, 2, 3, 1))
    assert out == (5, 0, 2, 3, 1, 6)
