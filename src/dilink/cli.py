"""Command-line front end.

Exit codes: 0 success/true, 1 falsified or not found, 2 usage error (an
input path that is missing, a directory or unreadable, input that is not
UTF-8, or any other InputError), 3 construction failure.  Every
randomized subcommand takes --seed and is fully deterministic given it.
"""

from __future__ import annotations

import argparse
import random
import sys

from .absorber import (
    absorb_paths,
    build_type1_absorber,
    build_type2_absorber,
    check_paths,
    cut_absorbable_segments,
    validate_absorber,
)
from .cover import build_d_cover, cover_size_formula
from .cycles import hamilton_cycle
from .degrees import (
    asymptotic_nash_williams,
    nash_williams,
    oriented_semidegree,
    posa_type,
)
from .digraph import Digraph, is_strongly_connected
from .errors import (
    BadParameter,
    CycleNotFound,
    DilinkError,
    InputError,
    NotOriented,
    PipelineFailed,
)
from .expansion import (
    DEFAULT_EXACT_CAP,
    ExpansionParams,
    Verdict,
    certify_outexpander_exact,
    falsify_outexpander_sampled,
)
from .fileio import (
    _parse_digraph,
    absorber_to_json,
    dump_json,
    format_digraph,
    parse_digraph,
    parse_ints,
    parse_pattern,
    read_digraph,
    read_pattern,
    subdivision_to_json,
)
from .generators import gen_random_digraph
from .pipeline import PipelineConfig, nh_linked_embed, perfect_tiling
from .subdivision import single_arc_pattern


def _load_digraph(path: str) -> Digraph:
    if path == "-":
        return _parse_digraph(sys.stdin.buffer, 0, "<stdin>")  # streamed, as a pipe's size reads 0
    return read_digraph(path)


def _report_line(name: str, report) -> str:
    if report.satisfied:
        return f"{name}: satisfied"
    return f"{name}: failed at index {report.failing_index} ({report.failing_clause})"


def cmd_check_degrees(args) -> int:
    """Every condition is decided before the first line is printed, so a
    bad margin exits 2 with nothing on stdout."""
    D = _load_digraph(args.graph)
    reports = [("nash-williams", nash_williams(D))]
    if args.gamma is not None:
        reports.append((f"asymptotic-nash-williams(gamma={args.gamma})",
                        asymptotic_nash_williams(D, args.gamma)))
        reports.append((f"posa-type(gamma={args.gamma})", posa_type(D, args.gamma)))
    lines = [_report_line(name, r) for name, r in reports]
    all_ok = all(r.satisfied for _, r in reports)
    if args.epsilon is not None:
        try:
            o = oriented_semidegree(D, args.epsilon)
            state = "satisfied" if o.satisfied else "failed"
            lines.append(
                f"oriented-semidegree(epsilon={args.epsilon}): {state} "
                f"(semidegree_ok={o.semidegree_ok}, degree_sum_ok={o.degree_sum_ok})"
            )
            all_ok &= o.satisfied
        except NotOriented:
            lines.append(f"oriented-semidegree(epsilon={args.epsilon}): skipped (digon present)")
    sc = is_strongly_connected(D)
    print("\n".join([*lines, f"strongly-connected: {sc}"]))
    return 0 if all_ok and sc else 1


def cmd_certify_expander(args) -> int:
    D = _load_digraph(args.graph)
    p = ExpansionParams(args.nu, args.tau)
    if args.exact:
        report = certify_outexpander_exact(D, p, max_exact_n=args.max_exact_n)
    else:
        report = falsify_outexpander_sampled(D, p, trials=args.trials, seed=args.seed)
    print(f"verdict: {report.verdict.value}")
    if report.counterexample is not None:
        print(f"counterexample: {sorted(report.counterexample)}")
    return 1 if report.verdict is Verdict.REFUTED else 0


def _config_from_args(args, needed_paths: int) -> PipelineConfig:
    return PipelineConfig(
        gamma=args.gamma,
        nu=args.nu,
        tau=args.tau,
        d=args.d if args.d is not None else max(3, needed_paths),
        seed=args.seed,
        restart_budget=args.restarts,
    )


def cmd_find_subdivision(args) -> int:
    D = _load_digraph(args.graph)
    H, file_map = read_pattern(args.pattern)
    lengths = parse_ints(args.lengths.split(","), args.lengths)
    if args.branches == "any":
        if H.underlying.n > D.n:
            raise BadParameter(f"the pattern has {H.underlying.n} vertices, more than n = {D.n}")
        pool = random.Random(args.seed).sample(range(D.n), H.underlying.n)
        f = dict(zip(range(H.underlying.n), pool))
    else:
        f = dict(file_map)
        for piece in filter(None, args.branches.split(",")):
            pair = parse_ints(piece.split(":"), piece)
            if len(pair) != 2:
                raise BadParameter(f"branch piece must be 'a:v', got {piece!r}")
            f[pair[0]] = pair[1]
    cfg = _config_from_args(args, H.h)
    dump_json(subdivision_to_json(nh_linked_embed(D, H, f, lengths, cfg)), sys.stdout)
    return 0


def cmd_tile(args) -> int:
    D = _load_digraph(args.graph)
    H, _ = read_pattern(args.pattern)
    orders = parse_ints(args.orders.split(","), args.orders)
    subs = perfect_tiling(D, H, orders, _config_from_args(args, len(orders)))
    dump_json({"tiles": [subdivision_to_json(s) for s in subs]}, sys.stdout)
    return 0


def cmd_build_cover(args) -> int:
    D = _load_digraph(args.graph)
    m = cover_size_formula(D.n, args.gamma, args.d)
    K = build_d_cover(D, args.d, args.seed)
    print(f"formula m = {m} (grown: {len(K)})")
    for u, v in K.pairs:
        print(f"{u} {v}")
    return 0


def cmd_absorb_demo(args) -> int:
    D = gen_random_digraph(args.n, args.p, args.seed)
    paths, slots = None, None
    if args.paths:
        paths = check_paths(
            D, [parse_ints(c.split(","), c) for c in args.paths.split(";")], args.d
        )
    p = ExpansionParams(args.nu, args.nu, args.gamma)
    H = single_arc_pattern()
    if args.type == 1:
        A = build_type1_absorber(D, H, {0: 0, 1: 1}, p, args.d, args.seed)
    else:
        A = build_type2_absorber(D, H, 2, p, args.d, args.seed)
    print(f"absorber: type {args.type}, |K| = {len(A.pairs)}, "
          f"order {len(A.vertices())}, valid = {validate_absorber(D, A)}",
          file=sys.stderr)
    if paths is None:
        C = hamilton_cycle(D, args.seed, avoid=A.vertices())
        slots = A.slots
        paths = cut_absorbable_segments(D, A, C, [5] * len(slots), args.seed)
        print(f"auto-picked absorbee paths: {[list(p_) for p_ in paths]}",
              file=sys.stderr)
    subs = absorb_paths(D, A, paths, slots)
    dump_json({"absorber": absorber_to_json(A),
               "result": [subdivision_to_json(s) for s in subs]}, sys.stdout)
    return 0


def cmd_gen_random(args) -> int:
    D = gen_random_digraph(args.n, args.p, args.seed)
    sys.stdout.write(format_digraph(D))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dilink",
        description="Digraph subdivision embedding via covers, ladders, and absorbers.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check-degrees", help="degree-condition reports")
    q.add_argument("graph", help="edge-list file, or - for stdin")
    q.add_argument("--gamma", type=str, default=None)
    q.add_argument("--epsilon", type=str, default=None)
    q.set_defaults(func=cmd_check_degrees)

    q = sub.add_parser("certify-expander", help="robust outexpansion check")
    q.add_argument("graph")
    q.add_argument("--nu", type=str, required=True)
    q.add_argument("--tau", type=str, required=True)
    q.add_argument("--exact", action="store_true")
    q.add_argument("--exact-cap", dest="max_exact_n", type=int, default=DEFAULT_EXACT_CAP)
    q.add_argument("--trials", type=int, default=2000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_certify_expander)

    def pipeline_opts(q):
        q.add_argument("--gamma", type=str, default="0.5")
        q.add_argument("--nu", type=str, default="0.75")
        q.add_argument("--tau", type=str, default="0.75")
        q.add_argument("--d", type=int, default=None, help="cover multiplicity; default max(3, "
                       "one per pattern arc or tile), not PipelineConfig's ceil(64/nu^2)")
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--restarts", type=int, default=3)

    q = sub.add_parser("find-subdivision", help="embed a subdivision with exact lengths")
    q.add_argument("graph")
    q.add_argument("--pattern", required=True)
    q.add_argument("--branches", default="any", help='"any" or comma list a:v')
    q.add_argument("--lengths", required=True)
    pipeline_opts(q)
    q.set_defaults(func=cmd_find_subdivision)

    q = sub.add_parser("tile", help="partition the digraph into subdivisions")
    q.add_argument("graph")
    q.add_argument("--pattern", required=True)
    q.add_argument("--orders", required=True)
    pipeline_opts(q)
    q.set_defaults(func=cmd_tile)

    q = sub.add_parser("build-cover", help="build and print a verified d-cover")
    q.add_argument("graph")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--gamma", type=str, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_build_cover)

    q = sub.add_parser("absorb-demo", help="build an absorber and absorb paths")
    q.add_argument("--n", type=int, default=300)
    q.add_argument("--p", type=float, default=0.6)
    q.add_argument("--type", type=int, choices=(1, 2), default=1)
    q.add_argument("--d", type=int, default=3)
    q.add_argument("--nu", type=str, default="0.75")
    q.add_argument("--gamma", type=str, default="0.5")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--paths", default=None, help='semicolon-separated comma lists')
    q.set_defaults(func=cmd_absorb_demo)

    q = sub.add_parser("gen-random", help="emit a random digraph as an edge list")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_gen_random)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PipelineFailed as e:
        print(f"pipeline failed at stage {e.stage}: {e}", file=sys.stderr)
        return 3
    except CycleNotFound as e:
        print(f"not found: {e}", file=sys.stderr)
        return 1
    except DilinkError as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
