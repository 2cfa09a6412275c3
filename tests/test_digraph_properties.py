"""Property test for is_strongly_connected against a from-definition
reachability check, on random digraphs on either side of the density at
which strong connectivity appears."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dilink import Digraph, is_strongly_connected

from helpers import oracle_strongly_connected, random_arc_set


@given(n=st.integers(0, 12), density=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1))
def test_strong_connectivity_matches_the_definition(n, density, seed):
    D = Digraph(n, random_arc_set(random.Random(seed), n, density))
    assert is_strongly_connected(D) == oracle_strongly_connected(D)
