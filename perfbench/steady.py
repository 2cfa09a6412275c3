"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py --workload embed-n600 --runs 5
    python3 perfbench/steady.py --workload all --runs 10 --sets 2 --first-seed 100
    python3 perfbench/steady.py --workload all --runs 5 --same-seed

Runs each workload ``--runs`` times per set, one process per run, with
the run length BENCHMARK.json gives.  Each run takes a new seed, or the
same seed every time with ``--same-seed``, which separates the host's
noise from the inputs' variance.  For every metric it prints the median,
the quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
the spread: the distance between the quartiles as a share of the median.
A set passes when every spread is within its metric's bound, every run
is correct, and the share of failed operations is the same in every run;
with ``--sets 2`` the second set's medians must also lie within the
bounds of the first's.  The command exits with code 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import NAMES

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def one_run(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{name} seed {seed}: exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(name: str, results: list[dict]) -> tuple[bool, dict[str, float]]:
    """Print one set's figures; return whether it passes and its medians."""
    shares = {(r["failed"], r["attempted"]) for r in results}
    correct = all(r["correct"] for r in results)
    ok = correct and len({f / a for f, a in shares}) == 1
    print(f"{name}: {len(results)} runs, failed/attempted {sorted(shares)}, "
          f"correct {correct}")
    medians = {}
    for key in results[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = BOUNDS[key]
        verdict = "ok" if spread < bound / 3 else ("wide" if spread <= bound else "OVER")
        ok &= spread <= bound
        medians[key] = med
        print(f"  {key:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:7.2%}  bound {bound}  {verdict}")
    return ok, medians


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true",
                    help="run every time with --first-seed")
    a = ap.parse_args()
    if a.runs < 2:
        ap.error("quartiles need at least two runs")
    ok = True
    for name in NAMES if a.workload == "all" else (a.workload,):
        seed, first = a.first_seed, None
        for k in range(a.sets):
            results = []
            for _ in range(a.runs):
                results.append(one_run(name, seed))
                m = results[-1]["metrics"]
                print(f"  {name} set {k + 1} seed {seed}: " + ", ".join(
                    f"{key} {v['value']:.6g}" for key, v in m.items()), flush=True)
                seed += not a.same_seed
            passed, medians = report(name, results)
            ok &= passed
            if first is None:
                first = medians
                continue
            for key, med in medians.items():
                shift = med / first[key] - 1
                within = abs(shift) <= BOUNDS[key]
                ok &= within
                print(f"  {key:<12} median moved {shift:+7.2%} from set 1  "
                      f"{'ok' if within else 'OVER'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
