"""Property tests for is_strongly_connected against a from-definition
reachability check, on random digraphs on either side of the density at
which strong connectivity appears, and for validate_path's scalar check
of short sequences against its whole-sequence matrix check."""

import random
from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph, is_strongly_connected, validate_path

from helpers import oracle_strongly_connected, random_arc_set


@given(n=st.integers(0, 12), density=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1))
def test_strong_connectivity_matches_the_definition(n, density, seed):
    D = Digraph(n, random_arc_set(random.Random(seed), n, density))
    assert is_strongly_connected(D) == oracle_strongly_connected(D)


def _matrix_path(D, seq):
    """validate_path's whole-sequence rule, read from numpy at once."""
    a = np.asarray(seq)
    if a.ndim != 1 or a.dtype.kind not in "iu" or not 0 < len(a) == len(set(a.tolist())):
        return False
    if a.min() < 0 or a.max() >= D.n:
        return False
    return bool(D.bool_matrix()[a[:-1], a[1:]].all())


# 0 and 1 on their own make repeated labels, and digons to repeat them
# along, common
LABELS = st.one_of(
    st.integers(0, 1), st.integers(-2, 7), st.integers(-2**70, 2**70), st.booleans(),
    st.floats(-1, 7),
)


@given(
    n=st.integers(1, 6), density=st.floats(0.3, 1.0), seed=st.integers(0, 2**32 - 1),
    seq=st.lists(LABELS, max_size=4), as_tuple=st.booleans(),
)
def test_short_paths_agree_with_the_matrix_check(n, density, seed, seq, as_tuple):
    # sequences of at most 3 plain ints take the scalar check; every label
    # kind (negative, out of range, huge, bool, float, repeated) must get
    # the answer of the whole-sequence matrix check
    D = Digraph(n, random_arc_set(random.Random(seed), n, density))
    seq = tuple(seq) if as_tuple else seq
    assert validate_path(D, seq) == _matrix_path(D, seq)
    if seq and all(type(v) is int and abs(v) < 2**62 for v in seq):
        assert validate_path(D, seq) == validate_path(D, np.array(seq, dtype=np.int64))


def test_every_short_sequence_over_a_small_alphabet_agrees_with_the_matrix_check():
    # a digon 0 <-> 1, an arc 1 -> 2 and none back: repeats, bad labels
    # and missing arcs, in every order and length up to 3
    D = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    alphabet = (-1, 0, 1, 2, 3, True, 1.0)
    for k in range(4):
        for seq in product(alphabet, repeat=k):
            for s in (seq, list(seq)):
                assert validate_path(D, s) == _matrix_path(D, s), s
