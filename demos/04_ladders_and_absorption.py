"""
Ladders: absorbing a path into another path
===========================================

A ladder is a little gadget sitting inside a longer path.  It decomposes
into "rungs", and each rung has an alternative route through the same
vertices.  Swapping every rung for its alternative frees up the ladder's
entry and exit so that an external path can be spliced in -- the path is
absorbed, every old vertex stays, and the endpoints never move.
"""

from dilink import (
    Digraph,
    HSubdivision,
    Ladder,
    absorb_path,
    alternative_rung_paths,
    rung_paths,
    single_arc_pattern,
    validate_ladder,
)

# a one-step ladder by hand: lower row 0,1,2, upper row 3,4,5, and a
# connector 1 -> 6 -> 4 joining the middle of the rows
arcs = [
    (0, 1), (2, 1),     # lower zig-zag
    (4, 3), (4, 5),     # upper zig-zag
    (2, 5),             # closing arc between the row ends
    (1, 6), (6, 4),     # the connector
]
L = Ladder(lower=(0, 1, 2), upper=(3, 4, 5), connectors={1: (1, 6, 4)})
D = Digraph(7, arcs)
print("ladder valid:", validate_ladder(D, L))
print("entry", L.start, "exit", L.end)
print("rungs:            ", rung_paths(L))
print("alternative rungs:", alternative_rung_paths(L))

# now embed the ladder in a longer host path and absorb 0 -> 7 -> 3.
# the host must contain every rung back to back; vertex 7 is new.
D = Digraph(11, set(arcs) | {(0, 7), (7, 3), (9, 0), (10, 9), (3, 2), (5, 8)})
# the host is the one path of a subdivided single arc 10 -> 8
host = (10, 9, 0, 1, 6, 4, 3, 2, 5, 8)
sub = HSubdivision(single_arc_pattern(), {0: host[0], 1: host[-1]}, {(0, 1): host})
out = absorb_path(D, sub, L, (0, 1), (0, 7, 3)).paths[(0, 1)]
print("\nhost before:", host)
print("host after: ", out)
print("same endpoints, same vertices plus the absorbee:",
      out[0] == host[0] and out[-1] == host[-1] and set(out) == set(host) | {7})
