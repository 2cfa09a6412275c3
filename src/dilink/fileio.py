"""Text and JSON interchange for digraphs and the structures built on them.

Digraphs travel as edge lists: a header line "n m", then m lines "u v".
Lines are split as str.splitlines splits them, '#' starts a comment that
runs to the end of its line, and blank lines are skipped.  Tokens are
separated by whitespace (what str.split splits on), and each integer
token is an optional sign followed by ASCII digits: '1_0', '٢', '0x1'
and '1.5' are not integers.  Arc labels must lie in 0..n-1, so a label
beyond int64 is out of range.  Pattern files reuse the same layout and
may append "map a v" lines pairing a pattern vertex with a host vertex.
Subdivisions, ladders, and absorbers serialize to plain JSON objects.
"""

from __future__ import annotations

import io
import itertools
import json
import re
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .absorber import Absorber
from .digraph import Digraph
from .errors import BadParameter, LabelOutOfRange
from .ladder import Ladder
from .subdivision import (
    HSubdivision,
    PatternDigraph,
    path_lengths,
    subdivision_order,
)

_INT = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def _content(line: str) -> str:
    """The line without its comment and surrounding whitespace."""
    return line.split("#", 1)[0].strip()


def _content_lines(lines: Iterable[str]) -> Iterator[str]:
    return filter(None, map(_content, lines))


def _split_lines(fh: TextIO) -> Iterator[str]:
    """The lines of fh, opened with newline='', split as str.splitlines
    splits its whole text: each 64 KiB block is split up to its last '\n'
    or last '\r' before its end, and the rest carried to the next, so a
    '\r\n' is never cut."""
    tail = ""
    while block := fh.read(1 << 16):
        tail += block
        cut = max(tail.rfind("\n"), tail.rfind("\r", 0, -1)) + 1
        yield from tail[:cut].splitlines()
        tail = tail[cut:]
    yield from tail.splitlines()


def _check_ints(tokens: Sequence[str], source: str) -> None:
    if not all(_INT.fullmatch(t.strip()) for t in tokens):
        raise BadParameter(f"non-integer value in {source!r}")


def parse_ints(tokens: Sequence[str], source: str) -> list[int]:
    """The tokens as integers, each an optional sign and ASCII digits
    (surrounding whitespace ignored); BadParameter quoting source otherwise."""
    _check_ints(tokens, source)
    try:
        return [int(t) for t in tokens]
    except ValueError:  # past int()'s limit of sys.get_int_max_str_digits()
        raise BadParameter(f"integer too long in {source!r}") from None


def _fits_int64(token: str) -> bool:
    """Whether an integer token's value lies in int64; a long token is
    refused before int() sees it."""
    return len(token.lstrip("+-0")) <= 19 and _INT64.min <= int(token) <= _INT64.max


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format: "n m" then m lines "u v"."""
    return _parse_digraph(io.StringIO(text, newline=""))


def _parse_digraph(fh: TextIO) -> Digraph:
    """The digraph in fh, streamed line by line.

    Every line after the header goes through one np.loadtxt call.  Only
    when that fails is fh read again from the start, line by line, to
    raise BadParameter (or LabelOutOfRange for a label beyond int64)
    naming the first bad line; Digraph then reports the first loop or
    label outside 0..n-1.
    """
    lines = _split_lines(fh)
    header = next(_content_lines(lines), None)
    if header is None:
        raise BadParameter("empty digraph file")
    head = header.split()
    if len(head) != 2:
        raise BadParameter(f"header must be 'n m', got {header!r}")
    n, m = parse_ints(head, header)
    # a leading "0 0" row fixes the width at two columns and keeps a file
    # without arcs from loadtxt's no-data warning; it is dropped below
    try:
        a = np.loadtxt(itertools.chain(["0 0"], lines), dtype=np.int64, comments="#", ndmin=2)[1:]
    except ValueError as e:
        fh.seek(0)
        for line in itertools.islice(_content_lines(_split_lines(fh)), 1, None):
            parts = line.split()
            if len(parts) != 2:
                raise BadParameter(f"arc line must be 'u v', got {line!r}")
            _check_ints(parts, line)
            if not all(map(_fits_int64, parts)):
                raise LabelOutOfRange(f"arc line {line!r} has a label outside 0..{n - 1}")
        raise BadParameter(f"unreadable arc lines: {e}")  # loadtxt's complaint, if no line
    if len(a) != m:
        raise BadParameter(f"header promises {m} arcs, file has {len(a)}")
    return Digraph(n, a)


def format_digraph(D: Digraph) -> str:
    lines = [f"{D.n} {D.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in np.argwhere(D.bool_matrix()).tolist())
    return "\n".join(lines) + "\n"


def read_digraph(path: str) -> Digraph:
    with open(path, encoding="utf-8", newline="") as fh:
        return _parse_digraph(fh)


def parse_pattern(text: str) -> tuple[PatternDigraph, dict[int, int]]:
    """Parse a pattern file: edge list plus optional "map a v" lines
    giving a (partial or full) branch map."""
    lines = _content_lines(text.splitlines())
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
