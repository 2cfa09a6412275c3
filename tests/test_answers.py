"""Seeded answers pinned by digest.  Each entry of ANSWERS computes one
seeded answer of the library as plain JSON values; the sha256 of its
canonical JSON (sorted keys, no spaces, ASCII) must equal the digest held
for it in answers.json, so a change that moves any of these answers fails
here, even where every property of the answer still holds.  answers.json
records the numpy version its digests were made with: the digraphs and
several draws come from np.random.default_rng, whose streams numpy may
change between versions.

After a change that moves an answer on purpose, say so in CHANGES.md and
rewrite the file with

    PYTHONPATH=src python tests/test_answers.py
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest

from dilink import (
    ExpansionParams,
    PipelineConfig,
    build_d_cover,
    build_disjoint_ladders,
    falsify_outexpander_sampled,
    gen_random_digraph,
    hamilton_cycle,
    nh_linked_embed,
    perfect_tiling,
    shortest_path_avoiding,
    single_arc_pattern,
    subdivision_to_json,
    triangle_pattern,
)
from dilink.cli import main
from dilink.errors import ConstructionFailed

from helpers import threshold_digraph, two_clusters

DIGESTS = Path(__file__).with_name("answers.json")
CFG = PipelineConfig(gamma="1/2", nu="3/4", tau="3/4", d=3, seed=0)


def _stall():
    try:
        build_d_cover(threshold_digraph(400, 0), 3, 0)
    except ConstructionFailed as e:
        return str(e)
    return None


def _ladders(k, avoid=()):
    # six terminal pairs on a sparse digraph, so that connectors route
    # through one or two interior vertices as well as along an arc
    terminals = [(1 + 2 * i, 2 + 2 * i) for i in range(6)]
    D = gen_random_digraph(200, 0.08, 11)
    ladders = build_disjoint_ladders(D, terminals, "3/4", 4, k, avoid)
    return [(L.lower, L.upper, sorted(L.connectors.items())) for L in ladders]


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _falsified(D, nu, tau, trials, seed):
    r = falsify_outexpander_sampled(D, ExpansionParams(nu, tau), trials, seed)
    cex = None if r.counterexample is None else sorted(r.counterexample)
    return {"verdict": r.verdict.value, "counterexample": cex, "trials": r.sampled_trials}


G = gen_random_digraph
ANSWERS = {
    "build_d_cover": lambda: build_d_cover(G(200, 0.7, 3), 3, 5).pairs,
    "build_d_cover-avoid": lambda: build_d_cover(
        G(200, 0.7, 3), 3, 5, avoid=range(0, 200, 7)
    ).pairs,
    "build_d_cover-d5": lambda: build_d_cover(G(400, 0.6, 7), 5, 2).pairs,
    "hamilton_cycle": lambda: hamilton_cycle(G(200, 0.6, 4), 5),
    "hamilton_cycle-avoid": lambda: hamilton_cycle(G(200, 0.6, 4), 5, avoid=range(0, 200, 3)),
    "perfect_tiling": lambda: [
        subdivision_to_json(s)
        for s in perfect_tiling(G(200, 0.7, 2), single_arc_pattern(), [80, 120], CFG)
    ],
    "nh_linked_embed": lambda: subdivision_to_json(
        nh_linked_embed(G(300, 0.7, 1), triangle_pattern(), {0: 0, 1: 1, 2: 2}, [55, 60, 70], CFG)
    ),
    # the walk back, each route drawn by its own seeded rng
    "shortest_path_avoiding": lambda: [
        shortest_path_avoiding(
            G(200, 0.03, 6), s, s + 100, np.arange(200) % 9 != 0, 12, random.Random(s)
        )
        for s in range(1, 9)
    ],
    # pipeline ladders are single arcs; these pin the k >= 1 sampler
    "build_disjoint_ladders-k1": lambda: _ladders(1),
    "build_disjoint_ladders-k1-avoid": lambda: _ladders(1, range(20, 200, 5)),
    "build_disjoint_ladders-k2": lambda: _ladders(2),
    "build_disjoint_ladders-k2-avoid": lambda: _ladders(2, range(20, 200, 5)),
    "threshold-stall": _stall,
    "absorb-demo": lambda: _cli("absorb-demo", "--seed", "1"),
    "absorb-demo-type2": lambda: _cli("absorb-demo", "--seed", "1", "--type", "2"),
    # every trial spent; a refutation at a greedy, a segment and a uniform
    # trial, the last in the second stream; one at a small nu
    "falsify-expander": lambda: _falsified(G(300, 0.9, 1), "1/10", "2/5", 100, 1),
    "falsify-greedy": lambda: _falsified(two_clusters(300, 0.6, 0.1, 0), "1/10", "2/5", 2000, 0),
    "falsify-segment": lambda: _falsified(G(63, 0.3, 63), "1/8", "1/4", 100, 7),
    "falsify-second-stream": lambda: _falsified(
        two_clusters(120, 0.6, 0.1, 8), "1/20", "1/10", 1000, 8
    ),
    "falsify-small-nu": lambda: _falsified(
        two_clusters(300, 0.6, 0.1, 0), "1/20", "1/10", 2000, 0
    ),
}


def digest(name: str) -> str:
    text = json.dumps(ANSWERS[name](), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_answer_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())["digests"]) == sorted(ANSWERS)


@pytest.mark.parametrize("name", sorted(ANSWERS))
def test_answer_matches_its_digest(name):
    held = json.loads(DIGESTS.read_text())
    assert digest(name) == held["digests"][name], (
        f"{name} moved (digests made with numpy {held['numpy']}, running {np.__version__})"
    )


if __name__ == "__main__":
    digests = {name: digest(name) for name in sorted(ANSWERS)}
    DIGESTS.write_text(
        json.dumps({"numpy": np.__version__, "digests": digests}, indent=2) + "\n"
    )
