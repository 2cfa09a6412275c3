"""
Covering pairs and disjoint connector paths
===========================================

Two small pieces of machinery that the absorber construction depends on:
a d-cover (disjoint vertex pairs so that every ordered pair (x, y) has
many pairs (u, v) with arcs u->x and y->v), and families of short
internally disjoint paths between prescribed terminal pairs.
"""

from dilink import (
    ConnectionRequest,
    Digraph,
    build_d_cover,
    connect_disjoint_paths,
    cover_size_formula,
    covers,
    gen_random_digraph,
    verify_d_cover,
)
from dilink.errors import ConnectionFailed

D = gen_random_digraph(400, 0.6, seed=0)

# the probabilistic size bound is huge, far above the n/2 disjoint pairs
# D holds; the builder instead draws random pairs one at a time and stops
# at the first prefix that 3-covers
m = cover_size_formula(400, "0.5", 3)
print(f"formula says {m} pairs; D holds at most {400 // 2}")
K = build_d_cover(D, d=3, seed=0)
print(f"grew {len(K)} disjoint pairs, verified 3-cover:",
      verify_d_cover(D, K, range(400), 3),
      "| one pair fewer covers:", verify_d_cover(D, K.pairs[:-1], range(400), 3))

# spot-check the definition on one ordered pair by hand
x, y = 17, 341
witnesses = [uv for uv in K.pairs if covers(D, uv, (x, y))]
print(f"pair ({x}, {y}) is covered by {len(witnesses)} pairs, e.g. {witnesses[:3]}")

# connectors: five terminal pairs routed by internally disjoint paths of
# at most 5 vertices each
G = gen_random_digraph(100, 0.5, seed=3)
pairs = ((0, 50), (1, 60), (2, 70), (3, 80), (4, 90))
paths = connect_disjoint_paths(G, ConnectionRequest(pairs, frozenset(), max_order=5), seed=0)
for (s, t), path in zip(pairs, paths):
    print(f"  {s} -> {t}: {path}")

# an impossible request fails with the index of the stuck pair
H = Digraph(6, [(0, 1), (1, 2), (3, 4)])  # vertex 5 is isolated
try:
    connect_disjoint_paths(H, ConnectionRequest(((0, 2), (5, 4)), frozenset()), seed=0)
except ConnectionFailed as e:
    print("doomed request failed at pair index", e.index)
