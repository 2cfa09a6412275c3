"""Run one benchmark workload, or every workload, and print the result.

    python3 perfbench/run.py --workload tile-n600 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One run repeats whole rounds, each a set-up of the workload's inputs
followed by a few operations on them, until ``--seconds`` have passed,
and checks every result against the benchmark's own computation.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs an untraced and a traced copy of each operation, in alternating
order, and reports the per-layer metrics (see tracing.py).
``--workload all`` runs each workload in a process of its own.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The run exits with a non-zero
code, printing no result, when the dilink sources are not next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import ROOT as ROOT_SPAN, Recorder, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("tile-n600", "embed-n600", "certify-n20")
# host_tick() on the reference machine when nothing else slows it
# (README.md); end-to-end times are scaled to this speed
TICK_REF_S = 0.05


def _cap_threads() -> None:
    """Cap numpy's thread pools at the number of usable cores."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if not os.environ.get(var, "").isdigit() or int(os.environ[var]) > cores:
            os.environ[var] = str(cores)


def _import_library() -> None:
    if not (SRC / "dilink" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dilink sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import dilink

    if Path(dilink.__file__).resolve().parent != SRC / "dilink":
        sys.exit(f"perfbench: dilink was imported from {dilink.__file__}, not {SRC}")


def host_tick() -> float:
    """Seconds a fixed pure-Python job of integer arithmetic and dict
    updates takes now.  It measures how fast the host runs the kind of
    work dilink does, and nothing of dilink."""
    start = perf_counter()
    d: dict[int, int] = {}
    for i in range(300_000):
        d[i & 1023] = d.get((i * 7) & 1023, 0) + i
    return perf_counter() - start


def _timed(calls, kind, recorder, unit, fn, *args):
    """Return fn(*args), traced as unit when a recorder is given, whose
    wrappers are in place during this call only.  Appends (kind, wall
    seconds, host tick just before) to calls, also when fn raises."""
    gc.collect()  # start without the previous call's garbage
    tick = host_tick()
    if recorder:
        recorder.install()
        recorder.unit = unit
    start = perf_counter()
    try:
        return recorder.call(ROOT_SPAN, fn, *args) if recorder else fn(*args)
    finally:
        calls.append((kind, perf_counter() - start, tick))
        if recorder:
            recorder.uninstall()


def _scaled(calls, end_tick: float, kind: str) -> list[float]:
    """Wall times of the calls of one kind, each scaled to the reference
    host speed by the mean of the host ticks just before and after it."""
    ticks = [tick for _, _, tick in calls] + [end_tick]
    return [wall * 2 * TICK_REF_S / (ticks[k] + ticks[k + 1])
            for k, (kd, wall, _) in enumerate(calls) if kd == kind]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS  # imports dilink, so only after _import_library

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name](seed, OUT)
    recorder = Recorder() if trace else None
    calls: list[tuple[str, float, float]] = []  # every timed call, in order
    problems: set[str] = set()
    failed = setups = i = 0
    begin = perf_counter()
    try:
        # whole rounds of one set-up and its operations, so that set-up and
        # operation times are both sampled over the whole run
        while i == 0 or perf_counter() - begin < seconds:
            state = None  # free the previous inputs before building new ones
            state = _timed(calls, "setup", recorder, f"setup-{setups}", wl.setup)
            setups += 1
            bad = wl.same_inputs(state)
            if bad:
                problems.add(f"set-up: {bad}")
            for _ in range(wl.ops_per_setup):
                args = wl.args(i)
                # the traced copy runs first on odd operations, so that
                # drift in host speed does not land on one side of the
                # overhead
                copies = [None, recorder] if recorder else [None]
                for rec in copies[::-1] if i % 2 else copies:
                    kind = "traced operation" if rec else "operation"
                    try:
                        result = _timed(calls, kind, rec, f"op-{i}", wl.call, state, args)
                    except Exception:  # counted as failed; the run goes on
                        bad = traceback.format_exc().strip().splitlines()[-1]
                    else:
                        bad = wl.check(args, result)
                    failed += bad is not None
                    if bad:
                        print(f"{kind} {i} failed: {bad}", file=sys.stderr)
                i += 1
        end_tick = host_tick()
    finally:
        wl.close()

    def walls(kind):
        return [wall for kd, wall, _ in calls if kd == kind]

    plain = walls("operation")
    attempted = len(plain) + len(walls("traced operation"))
    print(f"{name}: seed {seed}, {attempted} operations, {failed} failed")
    print("set-up times (s): " + " ".join(f"{t:.4f}" for t in walls("setup")))
    print("operation times (s): " + " ".join(f"{t:.4f}" for t in plain))
    print("host ticks (s): " + " ".join(f"{t:.4f}" for _, _, t in calls))
    if not recorder:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # times at the reference host speed: the host's own speed changes
        # by up to 1.7x within minutes (see README.md)
        metrics = {
            "setup_s": {"value": statistics.median(_scaled(calls, end_tick, "setup")),
                        "unit": "s"},
            "op_s": {"value": statistics.median(_scaled(calls, end_tick, "operation")),
                     "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        traced = walls("traced operation")
        units = {f"setup-{k}": w for k, w in enumerate(walls("setup"))}
        units.update((f"op-{k}", w) for k, w in enumerate(traced))
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics, mismatched = per_layer_metrics(recorder, units, wl.subsets)
        metrics["trace.overhead_s"]["value"] = overhead
        metrics["bench.op_median_s"]["value"] = statistics.median(plain)
        metrics["bench.host_tick_s"]["value"] = statistics.median(t for _, _, t in calls)
        spans = OUT / f"spans-{name}-seed{seed}.jsonl"
        recorder.write(spans)
        print("traced operation times (s): " + " ".join(f"{t:.4f}" for t in traced))
        print(f"tracing overhead: {overhead:+.4f} s per operation "
              f"(traced minus untraced median); {len(recorder.spans)} spans in {spans}")
        print(f"estimated from spans: {metrics['trace.span_cost_s']['value']:.4f} s per "
              f"operation (spans per operation times the cost of an empty span)")
        if mismatched:
            problems.update(f"time outside every layer: {m}" for m in mismatched)
        else:
            print(f"layer self times cover the wall time of all {len(units)} traced units")
    for problem in sorted(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process, so peak memory and lazily built
    caches stay with the workload that made them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    _cap_threads()
    _import_library()
    if a.workload == "all":
        result = run_all(a.seed, a.seconds, a.trace)
    else:
        result = measure(a.workload, a.seed, a.seconds, bool(a.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
