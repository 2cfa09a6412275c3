"""dilink: digraph subdivision embedding via covers, ladders, and absorbers.

A desk-scale library for the absorption method on dense digraphs: robust
outexpansion certification, degree-condition checkers, d-covers, ladder
construction and rung-swap absorption, absorber assembly, and end-to-end
pipelines that embed subdivisions with exact path lengths or tile a
digraph perfectly by subdivisions of prescribed orders.
"""

from .absorber import (
    Absorber,
    AbsorberParams,
    absorb_paths,
    absorber_params,
    absorber_size_bound,
    build_type1_absorber,
    build_type2_absorber,
    validate_absorber,
)
from .cover import (
    ConnectionRequest,
    CoverPairSet,
    build_d_cover,
    build_disjoint_ladders,
    connect_disjoint_paths,
    cover_size_formula,
    covers,
    shortest_path_avoiding,
    verify_d_cover,
)
from .cycles import (
    DEFAULT_EXACT_CAP,
    cut_cycle_segments,
    cycle_through_vertex,
    hamilton_cycle,
)
from .degrees import (
    ConditionReport,
    OrientedReport,
    asymptotic_nash_williams,
    nash_williams,
    oriented_semidegree,
    posa_type,
)
from .digraph import (
    Arc,
    DegreeProfile,
    Digraph,
    VertexRemoval,
    build_digraph,
    degree_profile,
    is_strongly_connected,
    remove_vertices,
    validate_cycle,
    validate_path,
)
from .errors import (
    AbsorberConstructionFailed,
    BadParameter,
    ConnectionFailed,
    CoverConstructionFailed,
    CycleNotFound,
    DegenerateLadder,
    DilinkError,
    EndpointMismatch,
    InvalidPath,
    LabelOutOfRange,
    LadderConstructionFailed,
    LoopArc,
    NoCoveringPair,
    NotDisjoint,
    NotEmbedded,
    NotOriented,
    OrdersDontSumToN,
    PathNotDisjoint,
    PipelineFailed,
    SizesExceedCycle,
    TooLargeForExact,
    TooLargeForOracle,
    TooManyPaths,
    TooSmall,
)
from .expansion import (
    DEFAULT_EXACT_CAP as EXPANSION_EXACT_CAP,
    ExpansionParams,
    ExpansionReport,
    Verdict,
    certify_inexpander_exact,
    certify_outexpander_exact,
    certify_survives_deletion,
    deletion_tolerance,
    derive_params_from_degrees,
    falsify_outexpander_sampled,
    inexpansion_params,
    min_semidegree_margin,
    robust_in_neighbourhood,
    robust_out_neighbourhood,
    shrink_params_for_deletion,
)
from .fileio import (
    absorber_to_json,
    format_digraph,
    ladder_to_json,
    parse_digraph,
    parse_pattern,
    read_digraph,
    read_pattern,
    subdivision_to_json,
    write_digraph,
)
from .generators import (
    complete_digraph,
    directed_cycle,
    directed_path,
    gen_random_digraph,
    rotational_tournament,
)
from .ladder import (
    EmbeddedLadder,
    Ladder,
    absorb_into_path,
    absorb_path,
    alternative_rung_paths,
    is_embedded,
    ladder_on_path,
    rung_paths,
    single_arc_ladder,
    validate_ladder,
)
from .pipeline import PipelineConfig, nh_linked_embed, perfect_tiling
from .ratio import as_fraction
from .subdivision import (
    HSubdivision,
    LengthPrescription,
    PatternDigraph,
    brute_force_subdivision,
    digon_pattern,
    min_prescribed_length,
    path_lengths,
    pattern_from_arcs,
    single_arc_pattern,
    subdivision_order,
    triangle_pattern,
    validate_subdivision,
    validate_tiling,
)

__version__ = "0.1.0"
