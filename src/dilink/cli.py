"""Command-line front end.

Exit codes: 0 success/true, 1 falsified or not found, 2 usage error,
3 construction failure.  Every randomized subcommand takes --seed and is
fully deterministic given it.
"""

from __future__ import annotations

import argparse
import random
import sys

from .absorber import absorb_paths, build_type1_absorber, build_type2_absorber, validate_absorber
from .cover import build_d_cover, cover_size_formula
from .cycles import cut_cycle_segments, hamilton_cycle
from .degrees import (
    asymptotic_nash_williams,
    nash_williams,
    oriented_semidegree,
    posa_type,
)
from .digraph import Digraph, is_strongly_connected, remove_vertices
from .errors import (
    BadParameter,
    CycleNotFound,
    DilinkError,
    LabelOutOfRange,
    LoopArc,
    NotOriented,
    PipelineFailed,
    TooLargeForExact,
)
from .expansion import (
    ExpansionParams,
    Verdict,
    certify_outexpander_exact,
    falsify_outexpander_sampled,
)
from .fileio import (
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
        return parse_digraph(sys.stdin.read())
    return read_digraph(path)


def _report_line(name: str, report) -> str:
    if report.satisfied:
        return f"{name}: satisfied"
    return f"{name}: failed at index {report.failing_index} ({report.failing_clause})"


def cmd_check_degrees(args) -> int:
    D = _load_digraph(args.graph)
    all_ok = True
    nw = nash_williams(D)
    print(_report_line("nash-williams", nw))
    all_ok &= bool(nw)
    if args.gamma is not None:
        a = asymptotic_nash_williams(D, args.gamma)
        print(_report_line(f"asymptotic-nash-williams(gamma={args.gamma})", a))
        all_ok &= bool(a)
        p = posa_type(D, args.gamma)
        print(_report_line(f"posa-type(gamma={args.gamma})", p))
        all_ok &= bool(p)
    if args.epsilon is not None:
        try:
            o = oriented_semidegree(D, args.epsilon)
            state = "satisfied" if o.satisfied else "failed"
            print(
                f"oriented-semidegree(epsilon={args.epsilon}): {state} "
                f"(semidegree_ok={o.semidegree_ok}, degree_sum_ok={o.degree_sum_ok})"
            )
            all_ok &= o.satisfied
        except NotOriented:
            print(f"oriented-semidegree(epsilon={args.epsilon}): skipped (digon present)")
    sc = is_strongly_connected(D)
    print(f"strongly-connected: {sc}")
    all_ok &= sc
    return 0 if all_ok else 1


def cmd_certify_expander(args) -> int:
    D = _load_digraph(args.graph)
    p = ExpansionParams(args.nu, args.tau)
    if args.exact:
        report = certify_outexpander_exact(D, p, max_exact_n=args.exact_cap)
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
        rng = random.Random(args.seed)
        pool = rng.sample(range(D.n), H.underlying.n)
        f = dict(zip(range(H.underlying.n), pool))
    else:
        f = dict(file_map)
        for piece in filter(None, args.branches.split(",")):
            a, v = parse_ints(piece.split(":"), piece)
            f[a] = v
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
    m = min(cover_size_formula(D.n, args.gamma, args.d), D.n // 2)
    K = build_d_cover(D, range(D.n), args.d, args.gamma, args.seed)
    print(f"formula m = {cover_size_formula(D.n, args.gamma, args.d)} (capped: {m})")
    for u, v in K.pairs:
        print(f"{u} {v}")
    return 0


def cmd_absorb_demo(args) -> int:
    D = gen_random_digraph(args.n, args.p, args.seed)
    p = ExpansionParams(args.nu, args.nu, args.gamma)
    H = single_arc_pattern()
    if args.type == 1:
        f, lengths = {0: 0, 1: 1}, [args.length]
        A = build_type1_absorber(D, H, f, lengths, p, args.d, args.seed)
    else:
        A = build_type2_absorber(D, H, [args.length] * 2, p, args.d, args.seed)
    print(f"absorber: type {args.type}, |K| = {len(A.pairs)}, "
          f"order {len(A.vertices())}, valid = {validate_absorber(D, A)}",
          file=sys.stderr)
    if args.paths:
        paths = [tuple(parse_ints(c.split(","), c)) for c in args.paths.split(";")]
    else:
        removal = remove_vertices(D, A.vertices())
        C = hamilton_cycle(removal.digraph, args.seed)
        C = tuple(removal.new_to_old[x] for x in C)
        paths = cut_cycle_segments(C, [5] * len(A.hosts), args.seed)
        print(f"auto-picked absorbee paths: {[list(p_) for p_ in paths]}",
              file=sys.stderr)
    subs = absorb_paths(D, A, paths)
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
    q.add_argument("--exact-cap", type=int, default=20)
    q.add_argument("--trials", type=int, default=2000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_certify_expander)

    def pipeline_opts(q):
        q.add_argument("--gamma", type=str, default="0.5")
        q.add_argument("--nu", type=str, default="0.75")
        q.add_argument("--tau", type=str, default="0.75")
        q.add_argument("--d", type=int, default=None)
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
    q.add_argument("--length", type=int, default=150)
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
    except (
        FileNotFoundError, BadParameter, LabelOutOfRange, LoopArc, TooLargeForExact
    ) as e:
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
