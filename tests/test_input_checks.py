"""The input-check contract: every public entry that takes a density
parameter rejects one outside its range with BadParameter, every entry
that takes an integer count rejects a fraction, a bool or a count below
its floor with BadParameter, and every entry that takes vertex labels
rejects one outside 0..n-1 with LabelOutOfRange, whichever module it
lives in.  Each of those is an InputError, and every dilink error is of
exactly one kind: an InputError, a ConstructionFailed or PipelineFailed."""

import functools

import pytest

from dilink import (
    Digraph,
    ExpansionParams,
    LengthPrescription,
    PipelineConfig,
    absorb_paths,
    absorber_params,
    absorber_size_bound,
    asymptotic_nash_williams,
    brute_force_subdivision,
    build_d_cover,
    build_disjoint_ladders,
    build_type1_absorber,
    complete_digraph,
    cover_size_formula,
    cut_cycle_segments,
    derive_params_from_degrees,
    directed_cycle,
    directed_path,
    falsify_outexpander_sampled,
    gen_random_digraph,
    hamilton_cycle,
    min_prescribed_length,
    perfect_tiling,
    posa_type,
    remove_vertices,
    robust_in_neighbourhood,
    robust_out_neighbourhood,
    rotational_tournament,
    shortest_path_avoiding,
    single_arc_pattern,
    verify_d_cover,
)
from dilink.absorber import check_paths, cut_absorbable_segments
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

# name -> (parameter, call with that parameter set to x)
DENSITY_ENTRIES = {
    "ExpansionParams-nu": ("nu", lambda x: ExpansionParams(x, "1/2")),
    "ExpansionParams-gamma": ("gamma", lambda x: ExpansionParams("1/4", "1/4", x)),
    "PipelineConfig-nu": ("nu", lambda x: PipelineConfig(gamma="1/2", nu=x, tau="1/4")),
    "PipelineConfig-gamma": ("gamma", lambda x: PipelineConfig(gamma=x, nu="1/4", tau="1/4")),
    "asymptotic_nash_williams": ("gamma", lambda x: asymptotic_nash_williams(K6, x)),
    "posa_type": ("gamma", lambda x: posa_type(K6, x)),
    "cover_size_formula": ("gamma", lambda x: cover_size_formula(100, x, 3)),
    "derive_params_from_degrees": ("gamma", lambda x: derive_params_from_degrees(100, x)),
    "absorber_params": ("nu", absorber_params),
    "absorber_size_bound-nu": ("nu", lambda x: absorber_size_bound(100, x, "1/2", 3)),
    "absorber_size_bound-gamma": ("gamma", lambda x: absorber_size_bound(100, "3/4", x, 3)),
    "build_disjoint_ladders": ("nu", lambda x: build_disjoint_ladders(K6, [(0, 1)], x, 0)),
    "min_prescribed_length": ("nu", min_prescribed_length),
    "robust_out_neighbourhood": ("nu", lambda x: robust_out_neighbourhood(K6, [0], x)),
    "robust_in_neighbourhood": ("nu", lambda x: robust_in_neighbourhood(K6, [0], x)),
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

# name -> (name in the message, least value, call with that count set to x)
COUNT_ENTRIES = {
    "LengthPrescription": ("every prescribed length", 1, lambda x: LengthPrescription((3, x))),
    "perfect_tiling": ("every order", 1, lambda x: perfect_tiling(
        K6, single_arc_pattern(), [x, 6 - x], PipelineConfig(**_CFG)
    )),
    "cut_cycle_segments": ("every segment size", 1, lambda x: cut_cycle_segments(range(6), [2, x])),
    "PipelineConfig-d": ("d", 1, lambda x: PipelineConfig(**_CFG, d=x)),
    "PipelineConfig-restart_budget": (
        "restart_budget", 1, lambda x: PipelineConfig(**_CFG, restart_budget=x)
    ),
    "build_disjoint_ladders": (
        "ladder_k", 0, lambda x: build_disjoint_ladders(K6, [(0, 1)], "1/2", 0, x)
    ),
    "build_d_cover": ("d", 1, lambda x: build_d_cover(complete_digraph(8), x, 0)),
    "cover_size_formula": ("d", 1, lambda x: cover_size_formula(100, "1/2", x)),
    "verify_d_cover": ("d", 0, lambda x: verify_d_cover(K6, [(0, 1)], [2, 3], x)),
    "falsify_outexpander_sampled": ("trials", 1, lambda x: falsify_outexpander_sampled(
        K6, ExpansionParams("1/6", "1/6"), x, 0
    )),
    "Digraph": ("vertex count", 0, lambda x: Digraph(x, [])),
    "gen_random_digraph": ("vertex count", 0, lambda x: gen_random_digraph(x, 0.5, 0)),
    "complete_digraph": ("vertex count", 0, complete_digraph),
    "directed_cycle": ("vertex count", 0, directed_cycle),
    "directed_path": ("vertex count", 0, directed_path),
    "rotational_tournament": ("vertex count", 0, rotational_tournament),
}


@pytest.mark.parametrize("bad", ["fraction", "bool", "below"])
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_counts_that_are_not_integers_at_least_their_floor_raise_bad_parameter(entry, bad):
    name, least, call = COUNT_ENTRIES[entry]
    x = {"fraction": least + 1.5, "bool": True, "below": least - 1}[bad]
    with pytest.raises(BadParameter, match=f"^{name} must be ") as e:
        call(x)
    assert isinstance(e.value, InputError)


@functools.cache
def _absorber():
    D = gen_random_digraph(200, 0.7, 0)
    p = ExpansionParams("3/4", "3/4", "1/2")
    return D, build_type1_absorber(D, single_arc_pattern(), {0: 0, 1: 1}, p, 3, 0)


# name -> (n, call with one label set to v on a digraph of n vertices)
LABEL_ENTRIES = {
    "out_neighbors": (6, lambda v: K6.out_neighbors(v)),
    "in_neighbors": (6, lambda v: K6.in_neighbors(v)),
    "out_degree": (6, lambda v: K6.out_degree(v)),
    "in_degree": (6, lambda v: K6.in_degree(v)),
    "remove_vertices": (6, lambda v: remove_vertices(K6, [0, v])),
    "hamilton_cycle-avoid": (6, lambda v: hamilton_cycle(K6, 0, avoid=[0, v])),
    "build_d_cover-avoid": (6, lambda v: build_d_cover(K6, 1, 0, avoid=[v])),
    "verify_d_cover-U": (6, lambda v: verify_d_cover(K6, [(0, 1)], [0, v, 5])),
    "verify_d_cover-K": (6, lambda v: verify_d_cover(K6, [(0, v)], [2, 3])),
    "shortest_path_avoiding-s": (6, lambda v: shortest_path_avoiding(K6, v, 0, set(), 4)),
    "shortest_path_avoiding-t": (6, lambda v: shortest_path_avoiding(K6, 0, v, set(), 4)),
    "shortest_path_avoiding-blocked": (6, lambda v: shortest_path_avoiding(K6, 0, 1, {v}, 4)),
    "robust_out_neighbourhood": (6, lambda v: robust_out_neighbourhood(K6, [0, v, 5], "1/2")),
    "robust_in_neighbourhood": (6, lambda v: robust_in_neighbourhood(K6, [0, v, 5], "1/2")),
    "build_disjoint_ladders": (6, lambda v: build_disjoint_ladders(K6, [(0, v)], "1/2", 0, 0)),
    "build_disjoint_ladders-avoid": (
        6, lambda v: build_disjoint_ladders(K6, [(0, 1)], "1/2", 0, 0, avoid=[v])
    ),
    "check_paths": (6, lambda v: check_paths(K6, [(0, 1), (2, v)], 3)),
    "build_type1_absorber": (6, lambda v: build_type1_absorber(
        K6, single_arc_pattern(), {0: 0, 1: v}, ExpansionParams(1, 1), 1, 0
    )),
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


def test_every_error_is_of_exactly_one_kind():
    # a refusal, a failed construction or a failed pipeline, by class
    kinds = (InputError, ConstructionFailed, PipelineFailed)
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, DilinkError)
        and c not in (DilinkError, InputError, ConstructionFailed)
    ]
    assert len(classes) == 21
    for c in classes:
        assert sum(issubclass(c, k) for k in kinds) == 1, c
        assert c is PipelineFailed or not issubclass(c, PipelineFailed), c
    # only a construction failure can prove that what was sought does not exist
    assert ConstructionFailed("x", exact=True).exact
    for e in (DilinkError("x"), InputError("x"), PipelineFailed("stage", "x")):
        assert not hasattr(e, "exact")
