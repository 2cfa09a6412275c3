import itertools
import random

import numpy as np
import pytest
from helpers import random_arc_set

from dilink import (
    Digraph,
    complete_digraph,
    directed_cycle,
    gen_random_digraph,
    is_strongly_connected,
    remove_vertices,
    rotational_tournament,
    validate_cycle,
    validate_path,
)
from dilink.degrees import _sorted_degrees
from dilink.digraph import MAX_ORDER
from dilink.errors import BadParameter, LabelOutOfRange, LoopArc


def test_basic_structure():
    D = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 0)])
    assert D.n == 4
    assert D.arc_count == 4  # duplicate (2, 0) collapses
    assert D.has_arc(0, 1) and not D.has_arc(1, 0)
    assert D.out_neighbors(0) == (1, 2)
    M = D.bool_matrix()
    assert np.flatnonzero(M[:, 0]).tolist() == [2]
    assert M[2].sum() == 1 and M[:, 2].sum() == 2
    assert list(D.vertices()) == [0, 1, 2, 3]


def test_digons_allowed_loops_rejected():
    D = Digraph(2, [(0, 1), (1, 0)])
    assert D.arc_count == 2
    with pytest.raises(LoopArc):
        Digraph(2, [(1, 1)])


def test_label_range_enforced():
    with pytest.raises(LabelOutOfRange):
        Digraph(3, [(0, 3)])
    with pytest.raises(BadParameter, match="vertex count must be >= 0"):
        Digraph(-1, [])
    with pytest.raises(BadParameter, match="too large"):  # above MAX_ORDER
        Digraph(10**20, [])
    with pytest.raises(BadParameter, match=f"the bound is {MAX_ORDER}"):
        Digraph(MAX_ORDER + 1, [(0, 1)])  # refused before an n x n matrix is allocated


def test_first_bad_arc_in_input_order_is_reported():
    with pytest.raises(LabelOutOfRange, match=r"\(0, 3\)"):
        Digraph(3, [(0, 1), (0, 3), (1, 1)])
    with pytest.raises(LoopArc, match=r"\(1, 1\)"):
        Digraph(3, [(0, 1), (1, 1), (0, 3)])
    with pytest.raises(LabelOutOfRange, match=r"\(-1, 2\)"):
        Digraph(3, [(-1, 2), (2, 5)])
    with pytest.raises(LoopArc, match=r"\(7, 7\)"):  # a loop wins over the range
        Digraph(3, [(7, 7)])
    with pytest.raises(BadParameter, match=r"^arcs must be pairs \(u, v\), got shape \(2, 3\)$"):
        Digraph(3, [(0, 1, 2), (1, 2, 0)])


def test_non_integer_labels_are_rejected():
    with pytest.raises(BadParameter):
        Digraph(3, [(0, 1), (0, 1.5)])
    with pytest.raises(BadParameter):
        Digraph(3, np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert Digraph(3, np.array([[0, 1], [1, 2]], dtype=np.int32)).arcs == {(0, 1), (1, 2)}


def test_has_arc_is_false_outside_the_label_range():
    D = Digraph(3, [(2, 0)])
    assert D.has_arc(2, 0)
    assert not D.has_arc(-1, 0)  # numpy would read row -1, i.e. row 2
    assert not D.has_arc(2, -3)
    assert not D.has_arc(0, 3)
    assert not D.has_arc(3, 0)
    assert not Digraph(0, []).has_arc(0, 0)


def test_neighbour_views_reject_labels_outside_the_range():
    D = Digraph(3, [(2, 0)])
    for v in (-1, 3, -4):  # numpy would read row 2 for -1
        with pytest.raises(LabelOutOfRange):
            D.out_neighbors(v)
    assert D.out_neighbors(2) == (0,)


def test_bool_matrix_is_read_only():
    D = Digraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        D.bool_matrix()[1, 2] = True
    assert not D.has_arc(1, 2) and not D.bool_matrix()[1, 2]
    # digraphs built straight from a matrix hold it read-only as well
    G = gen_random_digraph(6, 0.5, 1)
    for E in (G, G.reverse(), remove_vertices(G, [0, 3])):
        with pytest.raises(ValueError):
            E.bool_matrix()[0, 1] = not E.has_arc(0, 1)


def test_reverse_and_equality():
    D = Digraph(3, [(0, 1), (1, 2)])
    R = D.reverse()
    assert R.has_arc(1, 0) and R.has_arc(2, 1) and R.arc_count == 2
    assert R.reverse() == D
    assert hash(R.reverse()) == hash(D)


def test_dense_views_agree_with_has_arc():
    rng = random.Random(7)
    D = gen_random_digraph(17, 0.3, 11)
    M = D.bool_matrix()
    im = D.in_masks()
    for _ in range(300):
        u, v = rng.randrange(17), rng.randrange(17)
        if u == v:
            continue
        assert bool(M[u, v]) == D.has_arc(u, v)
        assert bool(im[v] >> u & 1) == D.has_arc(u, v)

    # every view against a from-definition reading of the input arc list
    inputs = [(0, []), (1, []), (5, []), (2, [(0, 1), (1, 0), (0, 1)])]
    for n in (3, 8, 17, 30):
        arcs = random_arc_set(rng, n, rng.uniform(0.1, 0.9))
        inputs.append((n, arcs + rng.sample(arcs, len(arcs) // 3)))  # with repeats
    for n, arc_list in inputs:
        D = Digraph(n, arc_list)
        arcs = set(arc_list)
        assert D.arcs == frozenset(arcs) and D.arc_count == len(arcs)
        M = D.bool_matrix()
        assert M.shape == (n, n)
        for v in range(n):
            outs = tuple(sorted(w for u, w in arcs if u == v))
            ins = tuple(sorted(u for u, w in arcs if w == v))
            assert D.out_neighbors(v) == outs
            assert D.in_masks()[v] == sum(1 << u for u in ins)
            for w in range(n):
                assert bool(M[v, w]) == D.has_arc(v, w) == ((v, w) in arcs)
        assert D.reverse().arcs == {(v, u) for u, v in arcs}
        gone = set(rng.sample(range(n), n // 3))
        kept = [v for v in range(n) if v not in gone]
        new = {v: i for i, v in enumerate(kept)}
        rem = remove_vertices(D, gone)
        assert rem.n == len(kept)
        assert rem.arcs == {(new[u], new[v]) for u, v in arcs if u in new and v in new}
        shuffled = list(arcs)
        rng.shuffle(shuffled)
        twin = Digraph(n, shuffled)
        assert twin == D and hash(twin) == hash(D)
        assert Digraph(n, np.array(shuffled, dtype=np.int64).reshape(-1, 2)) == D
        if n >= 2:
            toggled = arcs ^ {(0, 1)}
            assert Digraph(n, toggled) != D
        assert Digraph(n + 1, arcs) != D


def test_degree_profile():
    # the degree checkers' sorted sequences, summed from the matrix
    D = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    outs, ins = _sorted_degrees(D)
    assert outs.tolist() == [0, 1, 2]
    assert ins.tolist() == [0, 1, 2]
    M = D.bool_matrix()
    # vertex 1 has out+in = 2, the minimum over vertices
    assert M[1].sum() + M[:, 1].sum() == 2
    assert (M.sum(axis=1) + M.sum(axis=0)).min() == 2


def test_degree_sums_and_relabelling_invariance():
    """Both sorted sequences sum to the arc count, and they only depend
    on the digraph up to relabelling."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 15)
        D = gen_random_digraph(n, rng.uniform(0, 1), rng.randrange(10**6))
        outs, ins = _sorted_degrees(D)
        assert outs.sum() == ins.sum() == D.arc_count
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = Digraph(n, [(perm[u], perm[v]) for u, v in D.arcs])
        for seq, again in zip((outs, ins), _sorted_degrees(relabelled)):
            assert np.array_equal(seq, again)


def test_validate_path_agrees_with_brute_force_membership_check():
    """Cross-check against a from-scratch reading of "directed path":
    nonempty, distinct in-range labels, every consecutive pair an arc —
    over every label sequence of length <= 6 on digraphs with n <= 5."""
    rng = random.Random(47)
    hosts = [directed_cycle(4), complete_digraph(5), Digraph(3, [])]
    hosts += [
        Digraph(5, [(u, v) for u in range(5) for v in range(5) if u != v and rng.random() < 0.45])
        for _ in range(4)
    ]
    for D in hosts:
        arcs = set(D.arcs)
        for length in range(1, 7):
            for seq in itertools.product(range(D.n), repeat=length):
                ok = len(set(seq)) == length and all(
                    (seq[i], seq[i + 1]) in arcs for i in range(length - 1)
                )
                assert validate_path(D, seq) == ok


def test_remove_vertices_relabels_in_order():
    D = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    rem = remove_vertices(D, {1, 3})
    assert rem.n == 3
    assert rem.arcs == frozenset({(2, 0)})  # only 4->0 survives, as 2->0
    assert rem.bool_matrix().flags.c_contiguous  # rows stay cheap to read
    for bad in ({9}, {-1}, {0, 5}):
        with pytest.raises(LabelOutOfRange):
            remove_vertices(D, bad)


def test_validate_path_and_cycle():
    D = directed_cycle(5)
    assert validate_path(D, (0, 1, 2, 3))
    assert not validate_path(D, (0, 2))  # missing arc
    assert not validate_path(D, (0, 1, 0))  # repeat
    assert not validate_path(D, ())
    assert not validate_path(D, (0, 1, 7))  # out of range
    assert not validate_path(D, (-1, 0))  # -1 is not row n-1
    # non-integer labels are refused, never truncated: 0.5 does not read as 0
    for seq in ((0.5, 1), (0, 1.0, 2), ("0", "1"), (0, None), ((0, 1), (1, 2))):
        assert not validate_path(D, seq)
        assert not validate_cycle(D, seq)
    assert validate_cycle(D, (0, 1, 2, 3, 4))
    assert not validate_cycle(D, (0, 1, 2))  # closing arc 2->0 absent
    assert validate_cycle(Digraph(2, [(0, 1), (1, 0)]), (0, 1))
    assert not validate_cycle(D, (3,))


def test_strong_connectivity():
    assert is_strongly_connected(complete_digraph(6))
    assert is_strongly_connected(directed_cycle(8))
    assert not is_strongly_connected(Digraph(4, [(0, 1), (1, 2), (2, 3)]))
    assert is_strongly_connected(Digraph(1, []))
    assert is_strongly_connected(Digraph(0, []))
    assert not is_strongly_connected(Digraph(2, [(0, 1)]))


def test_generators():
    K = complete_digraph(5)
    assert K.arc_count == 20
    C = directed_cycle(4)
    assert C.arcs == frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})
    with pytest.raises(BadParameter):
        directed_cycle(1)
    T = rotational_tournament(7)
    assert T.arc_count == 21
    assert all(T.has_arc(u, v) != T.has_arc(v, u) for u in range(7) for v in range(u))
    with pytest.raises(BadParameter):
        rotational_tournament(6)
    with pytest.raises(BadParameter):
        gen_random_digraph(5, 1.5, 0)
    # the matrix fills against the families' definitions, arc by arc
    for n in range(13):
        half = (n - 1) // 2
        assert complete_digraph(n).arcs == {(u, v) for u in range(n) for v in range(n) if u != v}
        if n >= 2:
            assert directed_cycle(n).arcs == {(i, (i + 1) % n) for i in range(n)}
        if n % 2:
            assert rotational_tournament(n).arcs == {
                (i, (i + j) % n) for i in range(n) for j in range(1, half + 1)
            }


def test_random_digraph_is_seeded():
    A = gen_random_digraph(30, 0.4, 123)
    B = gen_random_digraph(30, 0.4, 123)
    C = gen_random_digraph(30, 0.4, 124)
    assert A == B
    assert A != C
    assert all(u != v for u, v in A.arcs)


@pytest.mark.parametrize("n", [-1, MAX_ORDER + 1])
@pytest.mark.parametrize(
    "make",
    [
        lambda n: gen_random_digraph(n, 0.5, 0),
        complete_digraph,
        directed_cycle,
        rotational_tournament,
    ],
    ids=["gen_random_digraph", "complete_digraph", "directed_cycle", "rotational_tournament"],
)
def test_random_digraph_checks_the_order_before_allocating(n, make, monkeypatch):
    monkeypatch.setattr("dilink.generators.np", None)  # any numpy call would fail
    with pytest.raises(BadParameter, match="vertex count"):
        make(n)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 300])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
def test_random_digraph_matches_one_whole_matrix_draw(n, p):
    # the generator fills its matrix in row blocks; the draws must be the
    # ones a single n x n draw of the same seed would give
    want = np.random.default_rng(7).random((n, n)) < p
    np.fill_diagonal(want, False)
    assert np.array_equal(gen_random_digraph(n, p, 7).bool_matrix(), want)
