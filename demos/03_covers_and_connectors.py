"""
Covering pairs and disjoint connector paths
===========================================

Two small pieces of machinery that the absorber construction depends on:
a d-cover (disjoint vertex pairs so that every ordered pair (x, y) has
many pairs (u, v) with arcs u->x and y->v), and short internally
disjoint paths between prescribed terminal pairs, routed one at a time.
"""

import random

import numpy as np

from dilink import (
    Digraph,
    build_d_cover,
    cover_size_formula,
    covers,
    gen_random_digraph,
    shortest_path_avoiding,
    verify_d_cover,
)

D = gen_random_digraph(400, 0.6, seed=0)

# the probabilistic size bound is huge, far above the n/2 disjoint pairs
# D holds; the builder instead draws random pairs one at a time and stops
# at the first prefix that 3-covers
m = cover_size_formula(400, "0.5", 3)
print(f"formula says {m} pairs; D holds at most {400 // 2}")
K = build_d_cover(D, d=3, seed=0)
print(f"grew {len(K)} disjoint pairs, verified 3-cover:",
      verify_d_cover(D, K, 3),
      "| one pair fewer covers:", verify_d_cover(D, K.pairs[:-1], 3))

# spot-check the definition on one ordered pair by hand
x, y = 17, 341
witnesses = [uv for uv in K.pairs if covers(D, uv, (x, y))]
print(f"pair ({x}, {y}) is covered by {len(witnesses)} pairs, e.g. {witnesses[:3]}")

# connectors: five terminal pairs routed one after another by shortest
# paths of at most 5 vertices, as the absorber threads its host paths:
# one mask of free vertices, the terminals taken first, then each path's
# interior
G = gen_random_digraph(100, 0.5, seed=3)
pairs = ((0, 50), (1, 60), (2, 70), (3, 80), (4, 90))


def route(D, pairs, max_order, rng):
    free = np.ones(D.n, dtype=bool)
    free[[v for pair in pairs for v in pair]] = False
    paths = []
    for s, t in pairs:
        path = shortest_path_avoiding(D, s, t, free, max_order, rng)
        paths.append(path)
        if path is not None:
            free[list(path[1:-1])] = False
    return paths


for (s, t), path in zip(pairs, route(G, pairs, 5, random.Random(0))):
    print(f"  {s} -> {t}: {path}")

# an impossible request leaves None for the stuck pair
H = Digraph(6, [(0, 1), (1, 2), (3, 4)])  # vertex 5 is isolated
print("doomed request:", route(H, ((0, 2), (5, 4)), 4, random.Random(0)))
