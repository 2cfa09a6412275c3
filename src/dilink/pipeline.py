"""End-to-end construction pipelines.

Both pipelines run one shared loop: build an absorber (whose host paths are
deliberately left short of their final size), find a Hamilton cycle of
the digraph minus the absorber, cut segments of exactly the missing
sizes from the cycle, and absorb each segment into its designated host
path.  Because rung-swap absorption adds exactly the absorbed vertices,
the final subdivisions hit their prescribed path lengths (or orders)
on the nose.  The pipelines differ only in their feasibility gates, the
absorber they build, the segment sizes and the final check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .absorber import (
    Absorber,
    absorb_paths,
    absorber_params,
    build_type1_absorber,
    build_type2_absorber,
)
from .cycles import cut_cycle_segments, hamilton_cycle
from .digraph import Digraph, remove_vertices
from .errors import (
    AbsorberConstructionFailed,
    BadParameter,
    CycleNotFound,
    NoCoveringPair,
    OrdersDontSumToN,
    PipelineFailed,
)
from .expansion import ExpansionParams, derive_params_from_degrees
from .ratio import Real, as_fraction
from .subdivision import (
    HSubdivision,
    LengthPrescription,
    PatternDigraph,
    min_prescribed_length,
    path_lengths,
    subdivision_order,
    validate_subdivision,
    validate_tiling,
)

_CUT_TRIES = 8


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the construction pipelines.

    nu and tau default to values derived from gamma (in which case the
    ordering 0 < nu <= tau <= gamma/16 is enforced); d defaults to the
    theory value ceil(64/nu^2), which desk-scale runs will usually
    override with something small.
    """

    gamma: Real
    nu: Real | None = None
    tau: Real | None = None
    d: int | None = None
    seed: int = 0
    restart_budget: int = 3

    def __post_init__(self):
        g = as_fraction(self.gamma)
        if not 0 < g < 1:
            raise BadParameter(f"gamma must lie in (0, 1), got {self.gamma}")
        object.__setattr__(self, "gamma", g)
        if self.restart_budget < 1:
            raise BadParameter("restart_budget must be >= 1")
        if self.d is not None and self.d < 1:
            raise BadParameter("d must be >= 1")

    def resolve(self, n: int) -> tuple[ExpansionParams, int]:
        """Concrete (ExpansionParams, d) for an n-vertex instance."""
        if self.nu is None and self.tau is None:
            p = derive_params_from_degrees(n, self.gamma)
            if not 0 < p.nu <= p.tau <= self.gamma / 16:
                raise BadParameter(
                    "derived parameters violate nu <= tau <= gamma/16"
                )
        else:
            tau = as_fraction(self.tau) if self.tau is not None else None
            nu = as_fraction(self.nu) if self.nu is not None else None
            if nu is None:
                nu = tau * tau
            if tau is None:
                tau = nu
            p = ExpansionParams(nu, tau, self.gamma)
        d = self.d if self.d is not None else absorber_params(p.nu).d
        return p, d


def _stage_seed(base: int, restart: int, salt: int) -> int:
    return (base * 1_000_003 + restart * 7919 + salt) & 0xFFFFFFFF


def _drive(
    D: Digraph,
    cfg: PipelineConfig,
    what: str,
    amounts: Sequence[int],
    build: Callable[[ExpansionParams, int, int], Absorber],
    sizes: Callable[[Absorber], list[int]],
    targets: Sequence | None,
    accept: Callable[[list[HSubdivision]], bool],
) -> list[HSubdivision]:
    """The loop both pipelines share, after the gates they share: every
    requested amount (a length or an order) must reach the minimum
    prescribed length, and d must allow absorbing one segment per amount.

    Per restart: build the absorber, find a Hamilton cycle of D minus
    it, and try up to _CUT_TRIES cuts of the cycle into segments of the
    given sizes until absorb_paths takes one; the enlarged hosts are
    returned if they pass the final check.  Stage failures trigger a
    full restart with derived seeds, up to cfg.restart_budget.
    """
    p, d = cfg.resolve(D.n)
    floor = min_prescribed_length(p.nu)
    for x in amounts:
        if x < floor:
            raise PipelineFailed("feasibility", f"{what} {x} below the minimum {floor}")
    if d < len(amounts):
        raise PipelineFailed(
            "feasibility", f"d = {d} cannot absorb {len(amounts)} segments at once"
        )
    last_stage, last_msg = "absorber", "no attempt ran"
    for restart in range(cfg.restart_budget):
        try:
            A = build(p, d, _stage_seed(cfg.seed, restart, 1))
        except AbsorberConstructionFailed as e:
            last_stage, last_msg = "absorber", str(e)
            continue
        removal = remove_vertices(D, A.vertices())
        try:
            C_local = hamilton_cycle(removal.digraph, _stage_seed(cfg.seed, restart, 2))
        except CycleNotFound as e:
            last_stage, last_msg = "cycle", str(e)
            continue
        C = tuple(removal.new_to_old[x] for x in C_local)
        seg_sizes = sizes(A)
        for cut in range(_CUT_TRIES):
            cut_seed = _stage_seed(cfg.seed, restart, 3 + cut)
            segs = cut_cycle_segments(C, seg_sizes, cut_seed)
            try:
                subs = absorb_paths(D, A, segs, targets=targets)
            except NoCoveringPair as e:
                last_stage, last_msg = "absorb", str(e)
                continue
            if accept(subs):
                return subs
            last_stage, last_msg = "validate", "absorbed hosts failed final checks"
            break
    raise PipelineFailed(last_stage, last_msg)


def nh_linked_embed(
    D: Digraph,
    H: PatternDigraph,
    f: Mapping[int, int],
    N: LengthPrescription | Sequence[int],
    cfg: PipelineConfig,
) -> HSubdivision:
    """Embed an H-subdivision with branch map exactly f and path lengths
    exactly N (one length per pattern arc, in arc order).

    Runs the shared loop with a Type-I absorber around f and one
    segment per pattern arc, sized to top its host path up to the
    prescribed length and absorbed into that path.
    """
    N = N if isinstance(N, LengthPrescription) else LengthPrescription(tuple(N))
    if len(N) != H.h:
        raise BadParameter(f"{H.h} lengths required, got {len(N)}")
    if sum(l + 1 for l in N) > D.n:
        raise PipelineFailed(
            "feasibility",
            f"sum of (l_i + 1) is {sum(l + 1 for l in N)}, exceeding n = {D.n}",
        )
    arcs = H.arc_order
    [sub] = _drive(
        D, cfg, "prescribed length", N.lengths,
        lambda p, d, seed: build_type1_absorber(D, H, f, N, p, d, seed),
        lambda A: [l + 1 - len(A.hosts[0].paths[a]) for l, a in zip(N, arcs)],
        arcs,
        lambda subs: validate_subdivision(D, subs[0])
        and path_lengths(subs[0]) == N.lengths
        and dict(subs[0].branch_map) == dict(f),
    )
    return sub


def perfect_tiling(
    D: Digraph,
    H: PatternDigraph,
    orders: Sequence[int],
    cfg: PipelineConfig,
) -> list[HSubdivision]:
    """Partition V(D) into H-subdivisions of exactly the given orders.

    Runs the shared loop with a Type-II absorber (one host per
    requested order) and the ENTIRE leftover cycle cut into k segments,
    so the union of the k enlarged subdivisions is V(D).
    """
    orders = [int(x) for x in orders]
    if not orders:
        raise BadParameter("at least one order required")
    if sum(orders) != D.n:
        raise OrdersDontSumToN(
            f"orders sum to {sum(orders)}, but the digraph has {D.n} vertices"
        )
    return _drive(
        D, cfg, "order", orders,
        lambda p, d, seed: build_type2_absorber(D, H, orders, p, d, seed),
        lambda A: [o - subdivision_order(h) for o, h in zip(orders, A.hosts)],
        None,
        lambda subs: validate_tiling(D, subs, orders),
    )
