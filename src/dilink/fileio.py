"""Text and JSON interchange for digraphs and the structures built on them.

Digraphs travel as edge lists: a header line "n m", then m lines "u v",
with '#' starting a comment.  Pattern files reuse the same layout and may
append "map a v" lines pairing a pattern vertex with a host vertex.
Subdivisions, ladders, and absorbers serialize to plain JSON objects.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence, TextIO

from .absorber import Absorber
from .digraph import Digraph
from .errors import BadParameter
from .ladder import Ladder
from .subdivision import (
    HSubdivision,
    PatternDigraph,
    path_lengths,
    subdivision_order,
)


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_ints(tokens: Sequence[str], source: str) -> list[int]:
    """The tokens as integers; BadParameter quoting source otherwise."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise BadParameter(f"non-integer value in {source!r}") from None


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format: "n m" then m lines "u v"."""
    lines = _content_lines(text)
    if not lines:
        raise BadParameter("empty digraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise BadParameter(f"header must be 'n m', got {lines[0]!r}")
    n, m = parse_ints(head, lines[0])
    arc_lines = [l for l in lines[1:] if not l.startswith("map ")]
    if len(arc_lines) != m:
        raise BadParameter(f"header promises {m} arcs, file has {len(arc_lines)}")
    arcs = []
    for line in arc_lines:
        parts = line.split()
        if len(parts) != 2:
            raise BadParameter(f"arc line must be 'u v', got {line!r}")
        try:  # inline: this loop runs once per arc
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise BadParameter(f"non-integer value in {line!r}") from None
    return Digraph(n, arcs)


def format_digraph(D: Digraph) -> str:
    lines = [f"{D.n} {D.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(D.arcs))
    return "\n".join(lines) + "\n"


def read_digraph(path: str) -> Digraph:
    with open(path, encoding="utf-8") as fh:
        return parse_digraph(fh.read())


def write_digraph(D: Digraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_digraph(D))


def parse_pattern(text: str) -> tuple[PatternDigraph, dict[int, int]]:
    """Parse a pattern file: edge list plus optional "map a v" lines
    giving a (partial or full) branch map."""
    lines = _content_lines(text)
    branch: dict[int, int] = {}
    graph_lines = []
    for line in lines:
        if line.startswith("map "):
            parts = line.split()
            if len(parts) != 3:
                raise BadParameter(f"map line must be 'map a v', got {line!r}")
            a, v = parse_ints(parts[1:], line)
            branch[a] = v
        else:
            graph_lines.append(line)
    D = parse_digraph("\n".join(graph_lines))
    return PatternDigraph(D), branch


def read_pattern(path: str) -> tuple[PatternDigraph, dict[int, int]]:
    with open(path, encoding="utf-8") as fh:
        return parse_pattern(fh.read())


def subdivision_to_json(sub: HSubdivision) -> dict:
    return {
        "branch": {str(a): v for a, v in sorted(sub.branch_map.items())},
        "paths": [list(sub.paths[arc]) for arc in sub.pattern.arc_order],
        "lengths": list(path_lengths(sub)),
        "order": subdivision_order(sub),
    }


def ladder_to_json(L: Ladder) -> dict:
    return {
        "k": L.k,
        "lower": list(L.lower),
        "upper": list(L.upper),
        "connectors": {str(i): list(q) for i, q in sorted(L.connectors.items())},
    }


def absorber_to_json(A: Absorber) -> dict:
    """Type 1 is a one-host absorber, type 2 one with several hosts."""
    return {
        "type": 1 if len(A.hosts) == 1 else 2,
        "K": [[u, v] for u, v in A.pairs.pairs],
        "ladders": [ladder_to_json(L) for L in A.ladders],
        "hosts": [subdivision_to_json(h) for h in A.hosts],
        "d": A.d,
    }


def dump_json(obj: Mapping, fh: TextIO) -> None:
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")
