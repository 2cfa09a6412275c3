"""The benchmark's workloads.

Each workload makes its inputs from the workload seed, keeps its own
adjacency matrix of every input digraph for the output checks, and calls
dilink only through the package's public names, looked up at call time so
that the traced run sees its wrappers.

A workload has four parts: ``setup()`` builds the inputs through the
library (timed), ``args(i)`` gives the inputs of operation i,
``call(state, args)`` is the timed operation, and ``check(args, result)``
returns None or what is wrong with the result.  A run repeats rounds of
one set-up followed by ``ops_per_setup`` operations on its inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import dilink
from checks import (
    check_embedding,
    check_exact_verdict,
    check_falsifier,
    check_tiling,
    counting_condition,
    subsets_enumerated,
    violating_masks,
)

# the paper's desk-scale pipeline parameters, as in the demos and the
# acceptance tests: nu = tau = 3/4 makes the minimum prescribed length 50
PIPELINE = dict(gamma="1/2", nu="3/4", tau="3/4", d=3)


def generator_matrix(n: int, p: float, seed: int) -> np.ndarray:
    """The binomial random digraph gen_random_digraph documents: each
    ordered pair u != v is an arc with probability p, drawn from numpy's
    default_rng(seed) over the n x n grid."""
    M = np.random.default_rng(seed).random((n, n)) < p
    np.fill_diagonal(M, False)
    return M


def _derived(seed: int, *salt: int) -> int:
    """A 31-bit seed derived from the workload seed and a salt."""
    return random.Random(repr((seed,) + salt)).getrandbits(31)


class Workload:
    """What every workload shares: round size, input check, clean-up."""

    ops_per_setup = 1
    subsets = 0  # quantified subsets an operation's exact certifiers enumerate
    matrices: list[np.ndarray]  # the benchmark's copy of each input digraph

    def same_inputs(self, state) -> str | None:
        """Whether set-up built digraphs of the benchmark's sizes."""
        graphs = state if isinstance(state, list) else [state]
        if len(graphs) != len(self.matrices):
            return f"set-up built {len(graphs)} digraphs, expected {len(self.matrices)}"
        for D, M in zip(graphs, self.matrices):
            if D.n != len(M) or D.arc_count != int(M.sum()):
                return (f"library built n={D.n} with {D.arc_count} arcs, "
                        f"the benchmark expects n={len(M)} with {int(M.sum())}")
        return None

    def close(self) -> None:
        pass


class Tile(Workload):
    """perfect_tiling of one D(600, 0.7) into two single-arc subdivisions
    of orders 240 and 360, one pipeline seed per operation."""

    name = "tile-n600"
    n, p, orders = 600, 0.7, (240, 360)
    ops_per_setup = 2  # set-up takes about as long as one operation

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.graph_seed = _derived(seed, 0)
        self.M = generator_matrix(self.n, self.p, self.graph_seed)
        self.matrices = [self.M]

    def setup(self):
        D = dilink.gen_random_digraph(self.n, self.p, self.graph_seed)
        D.bool_matrix()
        return D

    def args(self, i: int):
        return dilink.PipelineConfig(**PIPELINE, seed=_derived(self.seed, 1, i))

    def call(self, D, cfg):
        return dilink.perfect_tiling(D, dilink.single_arc_pattern(), list(self.orders), cfg)

    def check(self, cfg, tiles) -> str | None:
        plain = [
            (dict(t.branch_map), tuple(t.paths[t.pattern.arc_order[0]])) for t in tiles
        ]
        return check_tiling(self.M, plain, self.orders)


class Embed(Workload):
    """nh_linked_embed of a triangle into one D(600, 0.6) read from an
    edge-list file, with branch images, lengths in 50..60 and a pipeline
    seed drawn per operation."""

    name = "embed-n600"
    n, p, lengths = 600, 0.6, (50, 60)
    ops_per_setup = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.M = generator_matrix(self.n, self.p, _derived(seed, 0))
        self.matrices = [self.M]
        self.path = workdir / f"{self.name}-seed{seed}.txt"
        us, vs = np.nonzero(self.M)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(f"# D({self.n}, {self.p}) from workload seed {seed}\n")
            fh.write(f"{self.n} {len(us)}\n")
            fh.writelines(f"{u} {v}\n" for u, v in zip(us.tolist(), vs.tolist()))

    def close(self):
        self.path.unlink(missing_ok=True)

    def setup(self):
        D = dilink.read_digraph(str(self.path))
        D.bool_matrix()
        return D

    def args(self, i: int):
        r = random.Random(_derived(self.seed, 1, i))
        branch = dict(zip(range(3), r.sample(range(self.n), 3)))
        lengths = [r.randint(*self.lengths) for _ in range(3)]
        return branch, lengths, dilink.PipelineConfig(**PIPELINE, seed=r.getrandbits(31))

    def call(self, D, args):
        branch, lengths, cfg = args
        return dilink.nh_linked_embed(D, dilink.triangle_pattern(), branch, lengths, cfg)

    def check(self, args, sub) -> str | None:
        branch, lengths, _ = args
        arcs = list(sub.pattern.arc_order)
        if arcs != [(0, 1), (1, 2), (2, 0)]:
            return f"pattern arcs {arcs} are not the triangle's"
        paths = [tuple(sub.paths[a]) for a in arcs]
        return check_embedding(self.M, arcs, branch, dict(sub.branch_map), paths, lengths)


class Certify(Workload):
    """The expansion-certificate path.

    One operation certifies one dense 20-vertex expander exactly
    (out-expansion, in-expansion, and out-expansion again after each of two
    single-vertex deletions), then runs the sampled falsifier with a fixed
    trial count on one 300-vertex digraph.  Operations take the three
    instances of each kind in turn.

    The 20-vertex instances are D(20, 0.9) graphs that the benchmark's own
    enumeration shows to be expanders for all four certificates, so every
    certifier enumerates its whole size range.  The 300-vertex inputs are
    D(300, 0.9) graphs whose minimum in-degree proves robust expansion by
    counting, so no falsification trial can succeed and every one is spent.
    """

    name = "certify-n20"
    n, p, instances, deletions = 20, 0.9, 3, 2
    # out: (nu, tau) = (1/5, 1/5); in: (nu^2, 2 tau); after deleting one
    # vertex: (nu/2, 2 tau), the parameters the paper's lemmas give
    gamma = Fraction(3, 4)
    out_nt = (Fraction(1, 5), Fraction(1, 5))
    in_nt = (Fraction(1, 25), Fraction(2, 5))
    del_nt = (Fraction(1, 10), Fraction(2, 5))
    big_n, big_p, trials = 300, 0.9, 100
    big_nt = (Fraction(1, 10), Fraction(2, 5))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.chosen: list[tuple[int, np.ndarray, list[int]]] = []
        r = random.Random(_derived(seed, 0))
        while len(self.chosen) < self.instances:
            g = r.getrandbits(31)
            M = generator_matrix(self.n, self.p, g)
            gone = r.sample(range(self.n), self.deletions)
            if self._expander_everywhere(M, gone):
                self.chosen.append((g, M, gone))
        self.big_seeds = [_derived(seed, 2, j) for j in range(self.instances)]
        big = [generator_matrix(self.big_n, self.big_p, g) for g in self.big_seeds]
        self.proven = [counting_condition(M, *self.big_nt) for M in big]
        self.matrices = [M for _, M, _ in self.chosen] + big
        self.subsets = (
            subsets_enumerated(self.n, self.out_nt[1])
            + subsets_enumerated(self.n, self.in_nt[1])
            + self.deletions * subsets_enumerated(self.n - 1, self.del_nt[1])
        )

    def _views(self, M, gone):
        """(matrix, (nu, tau)) of each certificate: in-expansion of D is
        out-expansion of its reverse, and deleting v keeps label order."""
        return [(M, self.out_nt), (M.T, self.in_nt)] + [
            (np.delete(np.delete(M, v, 0), v, 1), self.del_nt) for v in gone
        ]

    def _expander_everywhere(self, M, gone) -> bool:
        return all(len(violating_masks(X, *nt)) == 0 for X, nt in self._views(M, gone))

    def _params(self, nt):
        return dilink.ExpansionParams(nt[0], nt[1], self.gamma)

    def setup(self):
        small = [dilink.gen_random_digraph(self.n, self.p, g) for g, _, _ in self.chosen]
        for D in small:
            D.bool_matrix()
        big = [dilink.gen_random_digraph(self.big_n, self.big_p, g) for g in self.big_seeds]
        for D in big:
            D.in_masks()
        return small + big

    def args(self, i: int):
        return i % self.instances, _derived(self.seed, 1, i)

    def call(self, graphs, args):
        j, fseed = args
        D = graphs[j]
        out_p, gone = self._params(self.out_nt), self.chosen[j][2]
        reports = [
            dilink.certify_outexpander_exact(D, out_p),
            dilink.certify_inexpander_exact(D, self._params(self.in_nt)),
            *(dilink.certify_survives_deletion(D, out_p, [v]) for v in gone),
        ]
        big = graphs[self.instances + j]
        sampled = dilink.falsify_outexpander_sampled(
            big, self._params(self.big_nt), self.trials, fseed
        )
        return reports, sampled

    def check(self, args, result) -> str | None:
        j, _ = args
        reports, sampled = result
        _, M, gone = self.chosen[j]
        views = self._views(M, gone)
        if len(reports) != len(views):
            return f"{len(reports)} certificates for {len(views)} requests"
        for (X, (nu, tau)), rep in zip(views, reports):
            cex = None if rep.counterexample is None else sorted(rep.counterexample)
            # every instance was chosen as an expander by violating_masks
            bad = check_exact_verdict(X, nu, tau, rep.verdict.value, cex, True)
            if bad:
                return bad
        return check_falsifier(
            sampled.verdict.value, sampled.sampled_trials, self.trials, self.proven[j]
        )


WORKLOADS = {w.name: w for w in (Tile, Embed, Certify)}
