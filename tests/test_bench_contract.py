"""The benchmark in perfbench/ wraps library functions by name from the
outside; these tests fail when a rename or a move would leave a wrapper
pointing at nothing, or a traced run unable to check its answers."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import dilink
from dilink.digraph import Digraph

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_exists():
    for short, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"dilink.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"dilink.{short}.{name}"
    for meth in tracing.DIGRAPH_METHODS:
        assert meth in Digraph.__dict__, f"Digraph.{meth}"


def test_exported_traced_names_are_the_module_objects():
    # the tracer swaps every binding of the module's object; an export that
    # is some other object would escape it
    for short, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"dilink.{short}")
        for name in names:
            if hasattr(dilink, name):
                assert getattr(dilink, name) is getattr(module, name), name


def test_a_short_traced_run_checks_out():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stderr
    for workload in ("tile-n600", "embed-n600"):  # both pipelines grow a cover
        assert result["metrics"][f"{workload}.cover.build_d_cover_s"]["value"] > 0
