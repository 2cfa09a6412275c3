"""The input-check contract: every public entry that takes a density
parameter rejects one outside its range with BadParameter, and every
entry that takes vertex labels rejects one outside 0..n-1 with
LabelOutOfRange, whichever module it lives in."""

import functools

import pytest

from dilink import (
    ExpansionParams,
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
    derive_params_from_degrees,
    gen_random_digraph,
    min_prescribed_length,
    posa_type,
    remove_vertices,
    robust_in_neighbourhood,
    robust_out_neighbourhood,
    shortest_path_avoiding,
    single_arc_pattern,
    verify_d_cover,
)
from dilink.absorber import check_paths, cut_absorbable_segments
from dilink.errors import BadParameter, LabelOutOfRange

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
    with pytest.raises(BadParameter, match=None if x == "x" else f"{name} must lie in"):
        call(x)


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
    "build_d_cover-avoid": (6, lambda v: build_d_cover(K6, 1, 0, avoid=[v])),
    "verify_d_cover-U": (6, lambda v: verify_d_cover(K6, [(0, 1)], [2, v])),
    "verify_d_cover-K": (6, lambda v: verify_d_cover(K6, [(0, v)], [2, 3])),
    "shortest_path_avoiding-s": (6, lambda v: shortest_path_avoiding(K6, v, 0, set(), 4)),
    "shortest_path_avoiding-t": (6, lambda v: shortest_path_avoiding(K6, 0, v, set(), 4)),
    "shortest_path_avoiding-blocked": (6, lambda v: shortest_path_avoiding(K6, 0, 1, {v}, 4)),
    "robust_out_neighbourhood": (6, lambda v: robust_out_neighbourhood(K6, [0, v], "1/2")),
    "robust_in_neighbourhood": (6, lambda v: robust_in_neighbourhood(K6, [0, v], "1/2")),
    "build_disjoint_ladders": (6, lambda v: build_disjoint_ladders(K6, [(0, v)], "1/2", 0, 0)),
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
    with pytest.raises(LabelOutOfRange):
        call(n if at_n else -1)
