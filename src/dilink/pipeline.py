"""End-to-end construction pipelines.

Both pipelines run one shared loop: build an absorber, check that each
of its host paths is short enough to leave room for a segment, find a
Hamilton cycle of the digraph minus the absorber, cut segments of
exactly the missing sizes from the cycle where each one's ends have a
covering pair on its host path, and absorb each segment into that path.
Because rung-swap absorption adds exactly the absorbed vertices, the
final subdivisions hit their prescribed path lengths (or orders) on the
nose.  The pipelines differ only in their feasibility gates, the
absorber they build, the segment sizes and the final check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .absorber import (
    Absorber,
    absorb_paths,
    absorber_params,
    build_type1_absorber,
    build_type2_absorber,
    cut_absorbable_segments,
)
from .cycles import hamilton_cycle
from .digraph import Digraph, remove_vertices
from .errors import (
    AbsorberConstructionFailed,
    BadParameter,
    CycleNotFound,
    NoCoveringPair,
    OrdersDontSumToN,
    PipelineFailed,
)
from .expansion import ExpansionParams
from .ratio import Real
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

@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the construction pipelines.

    nu and tau are the expansion parameters the absorber is built for;
    d defaults to the theory value ceil(64/nu^2), which desk-scale runs
    will usually override with something small.  restart_budget counts
    whole attempts (absorber, Hamilton cycle, cut, absorption), each on
    fresh seeds.  Construction checks every knob, building the
    ExpansionParams of nu, tau and gamma once; a bad one raises
    BadParameter here, before any pipeline runs.
    """

    gamma: Real
    nu: Real
    tau: Real
    d: int | None = None
    seed: int = 0
    restart_budget: int = 3
    _params: ExpansionParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = ExpansionParams(self.nu, self.tau, self.gamma)
        object.__setattr__(self, "_params", p)
        object.__setattr__(self, "gamma", p.gamma)
        if self.restart_budget < 1:
            raise BadParameter("restart_budget must be >= 1")
        if self.d is not None and self.d < 1:
            raise BadParameter("d must be >= 1")

    def resolve(self) -> tuple[ExpansionParams, int]:
        """Concrete (ExpansionParams, d)."""
        d = self.d if self.d is not None else absorber_params(self._params.nu).d
        return self._params, d


def _stage_seed(base: int, restart: int, salt: int) -> int:
    return (base * 1_000_003 + restart * 7919 + salt) & 0xFFFFFFFF


def _drive(
    D: Digraph,
    cfg: PipelineConfig,
    what: str,
    amounts: Sequence[int],
    build: Callable[[ExpansionParams, int, int], Absorber],
    sizes: Callable[[Absorber], list[int]],
    accept: Callable[[list[HSubdivision]], bool],
) -> list[HSubdivision]:
    """The loop both pipelines share, after the gates they share: every
    requested amount (a length or an order) must reach the minimum
    prescribed length, and d must allow absorbing one segment per amount.

    Each of cfg.restart_budget attempts builds the absorber and reads
    off sizes(A), the room each slot leaves: the number of vertices its
    segment must bring.  A slot with room below 2 (a segment needs two
    ends to cover) ends the attempt at stage "absorber"; this is the only
    room check, and it runs before any vertex is removed.  Otherwise the
    attempt finds a Hamilton cycle of D minus the absorber, cuts the
    cycle once into absorbable segments of those sizes, one per slot, and
    absorbs each into its slot, returning the enlarged hosts if they pass
    the final check.  This is the only retry loop: a failed stage ends
    the attempt, an exact one (a proof about the input) ends the loop,
    and PipelineFailed lists every attempt's stage and reason.
    """
    p, d = cfg.resolve()
    floor = min_prescribed_length(p.nu)
    for x in amounts:
        if x < floor:
            raise PipelineFailed("feasibility", f"{what} {x} below the minimum {floor}")
    if d < len(amounts):
        raise PipelineFailed(
            "feasibility", f"d = {d} cannot absorb {len(amounts)} segments at once"
        )
    attempts: list[tuple[str, str]] = []
    for restart in range(cfg.restart_budget):
        try:
            A = build(p, d, _stage_seed(cfg.seed, restart, 1))
        except AbsorberConstructionFailed as e:
            attempts.append(("absorber", str(e)))
            if e.exact:
                break
            continue
        room = sizes(A)
        i = min(range(len(room)), key=room.__getitem__)
        if room[i] < 2:
            attempts.append(("absorber", f"slot {A.slots[i]} has room {room[i]}, below 2"))
            continue
        removal = remove_vertices(D, A.vertices())
        try:
            C_local = hamilton_cycle(removal.digraph, _stage_seed(cfg.seed, restart, 2))
        except CycleNotFound as e:
            attempts.append(("cycle", f"in D - V(A), relabelled in order: {e}"))
            continue
        C = tuple(removal.new_to_old[x] for x in C_local)
        try:
            segs = cut_absorbable_segments(D, A, C, room, _stage_seed(cfg.seed, restart, 3))
            subs = absorb_paths(D, A, segs, A.slots)
        except NoCoveringPair as e:
            attempts.append(("absorb", str(e)))
            continue
        if accept(subs):
            return subs
        attempts.append(("validate", "absorbed hosts failed final checks"))
    stage, reason = attempts[-1]
    if len(attempts) > 1:
        reason += f" (earlier attempts: {'; '.join(f'{s}: {r}' for s, r in attempts[:-1])})"
    raise PipelineFailed(stage, reason, attempts)


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
    prescribed length and absorbed into that path.  Fails at stage
    "feasibility" when the subdivision's vertex count, sum(l_i - 1) +
    |V(H)|, exceeds n; a subdivision of exactly n vertices is attempted.
    """
    N = N if isinstance(N, LengthPrescription) else LengthPrescription(tuple(N))
    if len(N) != H.h:
        raise BadParameter(f"{H.h} lengths required, got {len(N)}")
    order = sum(l - 1 for l in N) + H.underlying.n
    if order > D.n:
        raise PipelineFailed(
            "feasibility", f"the subdivision has {order} vertices, exceeding n = {D.n}"
        )
    arcs = H.arc_order
    [sub] = _drive(
        D, cfg, "prescribed length", N.lengths,
        lambda p, d, seed: build_type1_absorber(D, H, f, p, d, seed),
        lambda A: [l + 1 - len(A.hosts[0].paths[a]) for l, a in zip(N, arcs)],
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
    if any(o < 1 for o in orders):
        raise BadParameter("every order must be >= 1")
    if sum(orders) != D.n:
        raise OrdersDontSumToN(
            f"orders sum to {sum(orders)}, but the digraph has {D.n} vertices"
        )
    return _drive(
        D, cfg, "order", orders,
        lambda p, d, seed: build_type2_absorber(D, H, len(orders), p, d, seed),
        lambda A: [o - subdivision_order(h) for o, h in zip(orders, A.hosts)],
        lambda subs: validate_tiling(D, subs, orders),
    )
