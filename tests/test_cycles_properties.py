"""Property tests for hamilton_cycle with avoided vertices: on a random
digraph and a random avoided set X, the answer is either a cycle through
exactly V(D) - X, checked by a walk over the matrix, or CycleNotFound,
exact only when an oracle on D - X finds none either: the permutation
oracle with at most 8 kept vertices, where existence must agree with it,
and a matching search above 14, where only a missing 1-factor is a
proof.  The subset table behind the exact verdicts must agree with the
permutation oracle on its own."""

import random
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph, gen_random_digraph, hamilton_cycle, remove_vertices
from dilink.cycles import _held_karp
from dilink.errors import CycleNotFound

from helpers import oracle_has_hamilton_cycle, random_arc_set


def _walks_exactly(D: Digraph, X: set, C) -> bool:
    """Whether C visits every vertex outside X once, and each step and
    the closing step is an arc of D."""
    M = D.bool_matrix()
    return (
        sorted(C) == [v for v in range(D.n) if v not in X]
        and all(M[C[i], C[(i + 1) % len(C)]] for i in range(len(C)))
    )


def _has_one_factor(D: Digraph, X: set) -> bool:
    """Whether every vertex outside X can get its own out-neighbour
    outside X: Kuhn's augmenting paths, one vertex at a time."""
    kept = [v for v in range(D.n) if v not in X]
    owner: dict[int, int] = {}  # in-copy -> out-copy matched to it

    def place(u: int, tried: set) -> bool:
        for v in kept:
            if D.has_arc(u, v) and v not in tried:
                tried.add(v)
                if v not in owner or place(owner[v], tried):
                    owner[v] = u
                    return True
        return False

    return all(place(u, set()) for u in kept)


def _avoided(rng: random.Random, n: int, kept: int) -> set:
    return set(rng.sample(range(n), n - kept))


@given(
    kept=st.integers(2, 8), extra=st.integers(0, 6), density=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1), s=st.integers(-5, 10**6),
)
def test_avoided_cycles_agree_with_the_oracle_on_small_digraphs(kept, extra, density, seed, s):
    rng = random.Random(seed)
    n = kept + extra
    D = Digraph(n, random_arc_set(rng, n, density))
    X = _avoided(rng, n, kept)
    exists = oracle_has_hamilton_cycle(remove_vertices(D, X))
    try:
        C = hamilton_cycle(D, s, avoid=X)
    except CycleNotFound as e:
        assert e.exact and not exists
    else:
        assert exists and _walks_exactly(D, X, C) and C[0] == min(set(range(n)) - X)


@given(n=st.integers(2, 8), density=st.floats(0.1, 0.9), seed=st.integers(0, 2**32 - 1))
def test_the_subset_table_agrees_with_the_oracle(n, density, seed):
    D = Digraph(n, random_arc_set(random.Random(seed), n, density))
    C = _held_karp(D.bool_matrix())
    assert (C is not None) == oracle_has_hamilton_cycle(D)
    if C is not None:
        assert C[0] == 0 and _walks_exactly(D, set(), C)


@given(
    n=st.integers(15, 60), share=st.floats(0.0, 0.6), density=st.floats(0.03, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_avoided_cycles_run_through_exactly_the_kept_vertices(n, share, density, seed):
    # above 14 kept vertices only a Hall violator proves absence, so an
    # exact failure must agree with a matching search on D - X
    rng = random.Random(seed)
    D = Digraph(n, random_arc_set(rng, n, density))
    X = _avoided(rng, n, max(15, n - int(share * n)))
    try:
        C = hamilton_cycle(D, seed, avoid=X)
    except CycleNotFound as e:
        assert e.exact == (not _has_one_factor(D, X))
    else:
        assert _walks_exactly(D, X, C)


def test_a_hall_violator_is_named_outside_the_avoided_set():
    D = gen_random_digraph(40, 0.5, 3)
    # avoiding every out-neighbour of 7 leaves it no arc out
    X = set(D.out_neighbors(7))
    with pytest.raises(CycleNotFound, match=r"from vertex 7 .*\|S\| = 1 > \|N\+\(S\)\| = 0") as e:
        hamilton_cycle(D, 0, avoid=X)
    assert e.value.exact
    # vertices 0, 1 and 2 send arcs only to 3, 4 and the avoided 20..39
    M = D.bool_matrix().copy()
    M[:3, :] = False
    M[:3, 3:5] = M[:3, 20:] = True
    D, X = Digraph(40, np.argwhere(M)), set(range(20, 40))
    with pytest.raises(CycleNotFound, match=r"\|S\| = 3 > \|N\+\(S\)\| = 2") as e:
        hamilton_cycle(D, 0, avoid=X)
    assert e.value.exact
    named = int(re.search(r"from vertex (\d+) ", str(e.value)).group(1))
    assert named in (0, 1, 2)
    # without X the same vertices have room, and the proof goes away
    assert len(hamilton_cycle(D, 0)) == 40
