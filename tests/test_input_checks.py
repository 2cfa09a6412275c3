"""The input-check contract: every public entry that takes a density
parameter rejects one outside its range with BadParameter, every entry
that takes an integer count rejects a fraction, a bool, a string or a
count below its floor with BadParameter, and every entry that takes
vertex labels rejects one outside 0..n-1 with LabelOutOfRange and one
that is not an integer with BadParameter (has_arc and pattern_from_arcs
check only the latter), whichever module it lives in.  Each of those is an InputError, and every dilink error is of
exactly one kind: an InputError, a ConstructionFailed or PipelineFailed."""

import functools
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dilink import (
    Absorber,
    Digraph,
    ExpansionParams,
    PipelineConfig,
    absorb_paths,
    absorber_size_bound,
    asymptotic_nash_williams,
    brute_force_subdivision,
    build_d_cover,
    build_disjoint_ladders,
    build_type1_absorber,
    build_type2_absorber,
    certify_inexpander_exact,
    certify_outexpander_exact,
    certify_survives_deletion,
    complete_digraph,
    cover_size_formula,
    cut_cycle_segments,
    derive_params_from_degrees,
    directed_cycle,
    falsify_outexpander_sampled,
    gen_random_digraph,
    hamilton_cycle,
    min_prescribed_length,
    nh_linked_embed,
    oriented_semidegree,
    pattern_from_arcs,
    perfect_tiling,
    posa_type,
    remove_vertices,
    robust_out_neighbourhood,
    rotational_tournament,
    shortest_path_avoiding,
    single_arc_pattern,
    verify_d_cover,
)
from dilink.absorber import check_paths, cut_absorbable_segments
from dilink.subdivision import check_branch_map
from dilink import errors
from dilink.errors import (
    BadParameter,
    ConstructionFailed,
    DilinkError,
    InputError,
    LabelOutOfRange,
    PipelineFailed,
)

K6 = complete_digraph(6)
FREE6 = np.ones(6, dtype=bool)  # every vertex of K6 free to route through

# name -> (parameter, call with that parameter set to x)
DENSITY_ENTRIES = {
    "ExpansionParams-nu": ("nu", lambda x: ExpansionParams(x, "1/2")),
    "ExpansionParams-gamma": ("gamma", lambda x: ExpansionParams("1/4", "1/4", x)),
    "PipelineConfig-nu": ("nu", lambda x: PipelineConfig(gamma="1/2", nu=x, tau="1/4")),
    "PipelineConfig-gamma": ("gamma", lambda x: PipelineConfig(gamma=x, nu="1/4", tau="1/4")),
    "asymptotic_nash_williams": ("gamma", lambda x: asymptotic_nash_williams(K6, x)),
    "posa_type": ("gamma", lambda x: posa_type(K6, x)),
    "cover_size_formula": ("gamma", lambda x: cover_size_formula(100, x, 3)),
    "derive_params_from_degrees": ("gamma", lambda x: derive_params_from_degrees(x)),
    "absorber_size_bound-nu": ("nu", lambda x: absorber_size_bound(100, x, "1/2", 3)),
    "absorber_size_bound-gamma": ("gamma", lambda x: absorber_size_bound(100, "3/4", x, 3)),
    "build_disjoint_ladders": ("nu", lambda x: build_disjoint_ladders(K6, [(0, 1)], x, 0)),
    "min_prescribed_length": ("nu", min_prescribed_length),
    "robust_out_neighbourhood": ("nu", lambda x: robust_out_neighbourhood(K6, [0], x)),
}
# gamma lies in (0, 1), nu in (0, 1]
OUT_OF_RANGE = {"gamma": (0, 1, "x"), "nu": (0, "5/4", "x")}


@pytest.mark.parametrize(
    "entry, x",
    [(e, x) for e, (name, _) in DENSITY_ENTRIES.items() for x in OUT_OF_RANGE[name]],
)
def test_density_parameters_outside_their_range_raise_bad_parameter(entry, x):
    name, call = DENSITY_ENTRIES[entry]
    with pytest.raises(BadParameter, match=None if x == "x" else f"{name} must lie in") as e:
        call(x)
    assert isinstance(e.value, InputError)


_CFG = dict(gamma="1/2", nu="3/4", tau="3/4")
_Q = ExpansionParams("1/8", "1/8")  # admits the deletion certifier's shrunken parameters

# name -> (name in the message, least value, call with that count set to x)
COUNT_ENTRIES = {
    "brute_force_subdivision": ("every prescribed length", 1, lambda x: brute_force_subdivision(
        K6, single_arc_pattern(), {0: 0, 1: 1}, (x,)
    )),
    "nh_linked_embed": ("every prescribed length", 1, lambda x: nh_linked_embed(
        K6, single_arc_pattern(), {0: 0, 1: 1}, (x,), PipelineConfig(**_CFG)
    )),
    "shortest_path_avoiding": (
        "max_order", 0, lambda x: shortest_path_avoiding(K6, 0, 1, FREE6, x, random.Random(0))
    ),
    "certify_outexpander_exact": (
        "max_exact_n", 0, lambda x: certify_outexpander_exact(K6, _Q, x)
    ),
    "certify_inexpander_exact": ("max_exact_n", 0, lambda x: certify_inexpander_exact(K6, _Q, x)),
    "certify_survives_deletion": (
        "max_exact_n", 0, lambda x: certify_survives_deletion(K6, _Q, [], x)
    ),
    "perfect_tiling": ("every order", 1, lambda x: perfect_tiling(
        K6, single_arc_pattern(), [x, 4], PipelineConfig(**_CFG)
    )),
    "cut_cycle_segments": ("every segment size", 1, lambda x: cut_cycle_segments(range(6), [2, x])),
    "cut_absorbable_segments": (
        "every segment size", 1, lambda x: cut_absorbable_segments(*_leftover(), [x])
    ),
    "PipelineConfig-d": ("d", 1, lambda x: PipelineConfig(**_CFG, d=x)),
    "PipelineConfig-restart_budget": (
        "restart_budget", 1, lambda x: PipelineConfig(**_CFG, restart_budget=x)
    ),
    "build_disjoint_ladders": (
        "ladder_k", 0, lambda x: build_disjoint_ladders(K6, [(0, 1)], "1/2", 0, x)
    ),
    "Absorber-d": ("d", 1, lambda x: Absorber(
        _absorber()[1].ladders, _absorber()[1].hosts, x, _absorber()[1].slots
    )),
    "build_type1_absorber-d": ("d", 1, lambda x: build_type1_absorber(
        K6, single_arc_pattern(), {0: 0, 1: 1}, ExpansionParams(1, 1), x, 0
    )),
    "build_type2_absorber-k": ("k", 1, lambda x: build_type2_absorber(
        K6, single_arc_pattern(), x, ExpansionParams(1, 1), 3, 0
    )),
    "build_type2_absorber-d": ("d", 1, lambda x: build_type2_absorber(
        K6, single_arc_pattern(), 1, ExpansionParams(1, 1), x, 0
    )),
    "build_d_cover": ("d", 1, lambda x: build_d_cover(complete_digraph(8), x, 0)),
    "cover_size_formula": ("d", 1, lambda x: cover_size_formula(100, "1/2", x)),
    "cover_size_formula-n": ("n", 1, lambda x: cover_size_formula(x, "1/2", 3)),
    "absorber_size_bound-n": ("n", 1, lambda x: absorber_size_bound(x, "3/4", "1/2", 3)),
    "absorber_size_bound-d": ("d", 1, lambda x: absorber_size_bound(600, "3/4", "1/2", x)),
    "verify_d_cover": ("d", 0, lambda x: verify_d_cover(K6, [(0, 1)], x)),
    "falsify_outexpander_sampled": ("trials", 1, lambda x: falsify_outexpander_sampled(
        K6, ExpansionParams("1/6", "1/6"), x, 0
    )),
    "Digraph": ("vertex count", 0, lambda x: Digraph(x, [])),
    "gen_random_digraph": ("vertex count", 0, lambda x: gen_random_digraph(x, 0.5, 0)),
    "complete_digraph": ("vertex count", 0, complete_digraph),
    "directed_cycle": ("vertex count", 0, directed_cycle),
    "rotational_tournament": ("vertex count", 0, rotational_tournament),
}


@pytest.mark.parametrize("bad", ["fraction", "bool", "below", "string"])
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_counts_that_are_not_integers_at_least_their_floor_raise_bad_parameter(entry, bad):
    # unchecked, the size formulas' n and d returned a number for 2.5 and
    # failed in their arithmetic with a bare TypeError for a string
    name, least, call = COUNT_ENTRIES[entry]
    x = {"fraction": least + 1.5, "bool": True, "below": least - 1, "string": str(least + 2)}[bad]
    with pytest.raises(BadParameter, match=f"^{name} must be ") as e:
        call(x)
    assert isinstance(e.value, InputError)


@pytest.mark.parametrize("cap", [2.5, "3"])
def test_a_path_order_cap_that_is_not_a_count_raises_bad_parameter(cap):
    # unchecked, 2.5 caps nothing (the 6-vertex path comes back) and "3"
    # fails in a comparison with a bare TypeError
    rng = random.Random(0)
    free = np.ones(10, dtype=bool)
    with pytest.raises(BadParameter, match="^max_order must be an integer"):
        shortest_path_avoiding(directed_cycle(10), 0, 5, free, cap, rng)
    assert shortest_path_avoiding(directed_cycle(10), 0, 5, free, 6.0, rng) == tuple(range(6))


@pytest.mark.parametrize(
    "free",
    [{2}, [True] * 6, np.ones(6, dtype=np.uint8), np.ones(6), np.ones(5, dtype=bool),
     np.ones(7, dtype=bool), np.ones((1, 6), dtype=bool)],
    ids=["set", "list", "uint8", "float", "short", "long", "two-dimensional"],
)
def test_a_free_mask_that_is_not_a_bool_array_of_length_n_raises_bad_parameter(free):
    # the router takes no label set: {2} would fail in numpy's indexing,
    # and a mask of another length in its broadcasting
    with pytest.raises(BadParameter, match="^free must be a bool array of length n = 6"):
        shortest_path_avoiding(K6, 0, 1, free, 4, random.Random(0))



@pytest.mark.parametrize(
    "arcs",
    [[(0, 1, 2)], [(0, 1), (2,)], [(0, 1), (1, 2, 0)], [(0, 1), (2, [0])], [0, 1]],
    ids=["triple", "ragged", "pair-then-triple", "nested", "flat"],
)
def test_arcs_that_are_not_pairs_raise_bad_parameter(arcs):
    # numpy itself refuses a ragged list, with its own ValueError
    with pytest.raises(BadParameter, match="^arcs must be pairs"):
        Digraph(3, arcs)


@pytest.mark.parametrize(
    "arcs", [[5], [(0, 1), 2], [(0, 1, 2)], [(0, 1), (2,)], np.array([[0, 1, 2], [1, 2, 0]])],
    ids=["int", "pair-then-int", "triple", "single", "triples-array"],
)
def test_pattern_arcs_that_are_not_pairs_raise_bad_parameter(arcs):
    # [5] once ended in a bare TypeError ("'int' object is not iterable"),
    # and an array in numpy's ValueError for its truth value
    with pytest.raises(BadParameter, match="^arcs must be pairs"):
        pattern_from_arcs(arcs)


def test_pattern_arcs_may_be_an_array_of_pairs_as_for_a_digraph():
    arcs = [(0, 1), (1, 2), (2, 0)]
    assert pattern_from_arcs(np.array(arcs)) == pattern_from_arcs(arcs)
    assert pattern_from_arcs(iter(arcs)) == pattern_from_arcs(arcs)
    with pytest.raises(BadParameter, match="^pattern needs at least one arc"):
        pattern_from_arcs(np.empty((0, 2), dtype=int))


@pytest.mark.parametrize("p", ["0.5", True, False, None, 1j])
def test_an_arc_probability_that_is_not_a_real_number_raises_bad_parameter(p):
    # unchecked, "0.5" fails in a comparison and True draws a complete digraph
    with pytest.raises(BadParameter, match="^arc probability must be a number") as e:
        gen_random_digraph(10, p, 0)
    assert isinstance(e.value, InputError)


def test_every_real_arc_probability_still_draws():
    assert gen_random_digraph(30, np.float64(0.3), 4) == gen_random_digraph(30, 0.3, 4)
    assert gen_random_digraph(30, Fraction(1, 2), 4) == gen_random_digraph(30, 0.5, 4)
    assert gen_random_digraph(30, Decimal("0.5"), 4) == gen_random_digraph(30, 0.5, 4)
    assert gen_random_digraph(6, 1, 0) == complete_digraph(6)
    assert gen_random_digraph(6, 0, 0).arc_count == 0


@pytest.mark.parametrize(
    "p",
    [Decimal("NaN"), Decimal("sNaN"), float("nan"), Fraction(10**400)],
    ids=["decimal-nan", "decimal-snan", "float-nan", "huge-fraction"],
)
def test_an_arc_probability_that_is_nan_or_huge_raises_bad_parameter(p):
    # compared as given, a Decimal NaN raised a bare decimal.InvalidOperation
    with pytest.raises(BadParameter, match="^arc probability must lie in"):
        gen_random_digraph(10, p, 0)


def test_a_fraction_arc_probability_draws_as_its_double_and_as_fast():
    # compared as given, a Fraction made numpy compare Python objects: 1 s at n = 600
    gen_random_digraph(600, 0.7, 0)
    start = time.perf_counter()
    D = gen_random_digraph(600, Fraction(7, 10), 0)
    assert time.perf_counter() - start < 0.25
    assert D == gen_random_digraph(600, 0.7, 0)


# name -> call with the seed set to x
SEED_ENTRIES = {
    "PipelineConfig": lambda x: PipelineConfig(**_CFG, seed=x),
    "hamilton_cycle": lambda x: hamilton_cycle(K6, x),
    "build_d_cover": lambda x: build_d_cover(complete_digraph(8), 1, x),
    "build_type1_absorber": lambda x: build_type1_absorber(
        _absorber()[0], single_arc_pattern(), {0: 0, 1: 1}, _P, 3, x
    ),
    "build_type2_absorber": lambda x: build_type2_absorber(
        _absorber()[0], single_arc_pattern(), 2, _P, 3, x
    ),
    "build_disjoint_ladders": lambda x: build_disjoint_ladders(
        _absorber()[0], [(0, 1), (2, 3)], "1/2", x, 1
    ),
    "gen_random_digraph": lambda x: gen_random_digraph(6, 0.5, x),
    "falsify_outexpander_sampled": lambda x: falsify_outexpander_sampled(
        K6, ExpansionParams("1/6", "1/6"), 3, x
    ),
    "cut_absorbable_segments": lambda x: cut_absorbable_segments(*_leftover(), [5], x),
    "cut_cycle_segments": lambda x: cut_cycle_segments(range(6), [2, 3], x),
}


@pytest.mark.parametrize("seed", [1.5, "3", True, None])
@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_a_seed_that_is_not_an_integer_raises_bad_parameter(entry, seed):
    # before the check, 1.5 failed in the seed arithmetic of several entries
    # with a bare TypeError, and True ran as seed 1
    with pytest.raises(BadParameter, match="^seed must be an integer") as e:
        SEED_ENTRIES[entry](seed)
    assert isinstance(e.value, InputError)


@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_a_seed_has_no_floor_but_where_numpy_sets_one(entry):
    # numpy's generator takes no negative seed; every other entry takes any int
    if entry == "gen_random_digraph":
        with pytest.raises(BadParameter, match="^seed must be >= 0"):
            SEED_ENTRIES[entry](-7)
    else:
        assert SEED_ENTRIES[entry](-7) == SEED_ENTRIES[entry](-7.0)


def test_a_pipeline_seed_has_no_floor():
    assert PipelineConfig(**_CFG, seed=-7).seed == -7
    assert type(PipelineConfig(**_CFG, seed=3.0).seed) is int
    D = gen_random_digraph(200, 0.7, 0)
    cfg = PipelineConfig(**_CFG, d=3, seed=-1)
    assert sorted(len(t.vertices()) for t in perfect_tiling(D, single_arc_pattern(), [80, 120], cfg)) == [80, 120]


_P = ExpansionParams("3/4", "3/4", "1/2")


@functools.cache
def _absorber():
    D = gen_random_digraph(200, 0.7, 0)
    return D, build_type1_absorber(D, single_arc_pattern(), {0: 0, 1: 1}, _P, 3, 0)


@functools.cache
def _leftover():
    """The absorber's digraph, the absorber and a Hamilton cycle of the rest."""
    D, A = _absorber()
    return D, A, hamilton_cycle(D, 0, avoid=A.vertices())


_R = random.Random(0)

# name -> (n, call with one label set to v on a digraph of n vertices)
LABEL_ENTRIES = {
    "out_neighbors": (6, lambda v: K6.out_neighbors(v)),
    "remove_vertices": (6, lambda v: remove_vertices(K6, [0, v])),
    "hamilton_cycle-avoid": (6, lambda v: hamilton_cycle(K6, 0, avoid=[0, v])),
    "build_d_cover-avoid": (6, lambda v: build_d_cover(K6, 1, 0, avoid=[v])),
    "verify_d_cover-K": (6, lambda v: verify_d_cover(K6, [(0, v)])),
    "shortest_path_avoiding-s": (6, lambda v: shortest_path_avoiding(K6, v, 0, FREE6, 4, _R)),
    "shortest_path_avoiding-t": (6, lambda v: shortest_path_avoiding(K6, 0, v, FREE6, 4, _R)),
    "robust_out_neighbourhood": (6, lambda v: robust_out_neighbourhood(K6, [0, v, 5], "1/2")),
    "build_disjoint_ladders": (6, lambda v: build_disjoint_ladders(K6, [(0, v)], "1/2", 0, 0)),
    "build_disjoint_ladders-avoid": (
        6, lambda v: build_disjoint_ladders(K6, [(0, 1)], "1/2", 0, 0, avoid=[v])
    ),
    "check_paths": (6, lambda v: check_paths(K6, [(0, 1), (2, v)], 3)),
    "build_type1_absorber": (6, lambda v: build_type1_absorber(
        K6, single_arc_pattern(), {0: 0, 1: v}, ExpansionParams(1, 1), 1, 0
    )),
    "nh_linked_embed": (6, lambda v: nh_linked_embed(
        K6, single_arc_pattern(), {0: 0, 1: v}, (2,), PipelineConfig(**_CFG)
    )),
    "certify_survives_deletion": (
        6, lambda v: certify_survives_deletion(K6, ExpansionParams(1, 1), [v])
    ),
    "check_branch_map": (6, lambda v: check_branch_map(single_arc_pattern(), {0: 0, 1: v}, 6)),
    "brute_force_subdivision": (6, lambda v: brute_force_subdivision(
        K6, single_arc_pattern(), {0: 0, 1: v}, (1,)
    )),
    "absorb_paths": (200, lambda v: absorb_paths(*_absorber(), [(v,)])),
    "cut_absorbable_segments": (200, lambda v: cut_absorbable_segments(*_absorber(), [v], [1])),
}


@pytest.mark.parametrize("at_n", [False, True], ids=["minus-one", "n"])
@pytest.mark.parametrize("entry", LABEL_ENTRIES)
def test_labels_outside_the_digraph_raise_label_out_of_range(entry, at_n):
    n, call = LABEL_ENTRIES[entry]
    with pytest.raises(LabelOutOfRange) as e:
        call(n if at_n else -1)
    assert isinstance(e.value, InputError)


@pytest.mark.parametrize("v", [2.5, 4.0, True], ids=["fraction", "float", "bool"])
@pytest.mark.parametrize("entry", LABEL_ENTRIES)
def test_labels_that_are_not_integers_raise_bad_parameter(entry, v):
    # numpy would read True as label 1 and refuse a float with IndexError
    _, call = LABEL_ENTRIES[entry]
    with pytest.raises(BadParameter, match="not an integer label"):
        call(v)


# name -> call with one label set to v; has_arc answers False outside
# 0..n-1, and a pattern's labels set its order
UNRANGED_LABEL_ENTRIES = {
    "has_arc-u": lambda v: K6.has_arc(v, 0),
    "has_arc-v": lambda v: K6.has_arc(0, v),
    "pattern_from_arcs": lambda v: pattern_from_arcs([(0, 1), (0, v)]),
}


@pytest.mark.parametrize(
    "v", [2.5, 4.0, True, "1", "a"], ids=["fraction", "float", "bool", "digit", "letter"]
)
@pytest.mark.parametrize("entry", UNRANGED_LABEL_ENTRIES)
def test_unranged_labels_that_are_not_integers_raise_bad_parameter(entry, v):
    # each once ended in a bare TypeError, and pattern_from_arcs([(0, 1.5)])
    # blamed the vertex count 2.5 it had derived
    with pytest.raises(BadParameter, match=rf"^vertex {re.escape(repr(v))} is not an integer label"):
        UNRANGED_LABEL_ENTRIES[entry](v)


@pytest.mark.parametrize("k", [0, 1])
def test_a_cycle_of_fewer_than_two_vertices_raises_bad_parameter(k):
    # as hamilton_cycle refuses one; with no offset to draw, random.choice
    # raised a bare IndexError in the absorbable cut, and randrange a bare
    # ValueError in the plain one
    D, A, C = _leftover()
    with pytest.raises(BadParameter, match="^a cycle needs at least 2 vertices"):
        cut_absorbable_segments(D, A, C[:k], [])
    with pytest.raises(BadParameter, match="^a cycle needs at least 2 vertices"):
        cut_cycle_segments(C[:k], [])


@pytest.mark.parametrize("eps", [-1, "-1/100", 1, "5/4"])
@pytest.mark.parametrize("D", [Digraph(3, []), K6], ids=["arcless", "digons"])
def test_an_epsilon_outside_zero_to_one_raises_bad_parameter_before_the_digon_check(D, eps):
    # epsilon = -1 once passed both conditions on a digraph with no arcs
    with pytest.raises(BadParameter, match="^epsilon must lie in"):
        oriented_semidegree(D, eps)


@pytest.mark.parametrize("eps", [0, "99/100"])
def test_an_epsilon_in_zero_to_one_is_read(eps):
    report = oriented_semidegree(Digraph(3, []), eps)
    assert not report.semidegree_ok and not report.degree_sum_ok


def test_every_error_is_of_exactly_one_kind():
    # a refusal, a failed construction or a failed pipeline, by class
    kinds = (InputError, ConstructionFailed, PipelineFailed)
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, DilinkError)
        and c not in (DilinkError, InputError, ConstructionFailed)
    ]
    assert len(classes) == 6
    for c in classes:
        assert sum(issubclass(c, k) for k in kinds) == 1, c
        assert c is PipelineFailed or not issubclass(c, PipelineFailed), c
    # only a construction failure can prove that what was sought does not exist
    assert ConstructionFailed("x", exact=True).exact
    for e in (DilinkError("x"), InputError("x"), PipelineFailed("stage", "x")):
        assert not hasattr(e, "exact")
