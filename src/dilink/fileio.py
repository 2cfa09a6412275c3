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
import os
import re
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, TextIO

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
_BLOCK = 1 << 16  # bytes read at a time
# the line breaks of str.splitlines
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_Blocks = Iterator[tuple[int, bytes]]  # (byte offset, bytes) of each block


def _content(line: str) -> str:
    """The line without its comment and surrounding whitespace."""
    return line.split("#", 1)[0].strip()


def _content_lines(lines: Iterable[str]) -> Iterator[str]:
    return filter(None, map(_content, lines))


def _blocks(fh: BinaryIO) -> _Blocks:
    """The bytes of fh in blocks of whole lines, each with its offset:
    each block read is cut after its last '\n', or its last '\r' before
    its end, and the rest carried to the next, so a '\r\n' is never cut
    and the blocks split into lines as str.splitlines splits the whole
    text.  Neither byte occurs inside a multi-byte UTF-8 character, so
    every block decodes on its own.  The last block is what is left, line
    break or not."""
    at, tail = 0, b""
    while block := fh.read(_BLOCK):
        block = tail + block
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        block, tail = block[:cut], block[cut:]
        yield at, block
        at += cut
    yield at, tail


def _decode(data: bytes, source: str, at: int = 0) -> str:
    """data, found at byte offset `at` of source, as UTF-8 text;
    BadParameter naming source and the offset of the first undecodable
    byte otherwise."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise BadParameter(f"{source!r} is not UTF-8: undecodable byte at offset {at + e.start}") from None


def _header(blocks: _Blocks, source: str) -> tuple[str, _Blocks] | None:
    """The first content line of the blocks, found without splitting its
    block into lines, and the blocks after it: the rest of its own block,
    from the byte where the header's line ends, then the blocks not yet
    read.  Only the blocks up to the header's are decoded."""
    for at, block in blocks:
        text = _decode(block, source, at)
        start = 0
        for brk in _LINE_BREAK.finditer(text):
            if line := _content(text[start : brk.start()]):
                end = len(text[: brk.end()].encode())
                return line, itertools.chain([(at + end, block[end:])], blocks)
            start = brk.end()
        if line := _content(text[start:]):
            return line, blocks
    return None


def _plain_rows(block: bytes) -> np.ndarray | None:
    """The (k, 2) int64 rows of a block made only of 'digits SP digits LF'
    lines with at most 18 digits a token, which int64 holds; None for any
    other block.  Never raises: a block it refuses goes to np.loadtxt.

    Every byte below '0' (48) ends a token; the block passes when those
    bytes alternate ' ' and '\n' from a first token of at least one digit
    to a last '\n', no two adjacent, and no byte lies above '9'.  Each
    token is then read right-aligned from the byte before its separator,
    one pass per digit place from the highest, by Horner's rule; a place
    beyond a token's width is masked to a leading zero.  The passes work
    in place, so a block's temporaries stay two arrays of one int64 a
    token.
    """
    if not block.endswith(b"\n"):
        return None
    b = np.frombuffer(block, dtype=np.uint8)
    if (b > 57).any():
        return None
    at = np.flatnonzero(b < 48)  # the separators, then the bytes a pass reads
    kind = b[at]
    if (kind[0::2] != 32).any() or (kind[1::2] != 10).any():
        return None
    width = np.empty_like(at)  # each token's digits, between two separators
    width[0] = at[0]
    np.subtract(at[1:], at[:-1], out=width[1:])
    width[1:] -= 1
    top = int(width.max())
    if width.min() < 1 or top > 18:
        return None
    width = width.astype(np.uint8)
    digit = b - np.uint8(48)
    del b, kind  # the passes need only at, width and digit
    value = np.zeros(len(at), dtype=np.int64)
    at -= top
    for place in range(top, 0, -1):
        value *= 10
        value += digit[at] * (width >= place)  # at below 0 wraps, masked out
        at += 1
    return value.reshape(-1, 2)


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
    refused, and a zero-padded one stripped, before int() sees it."""
    digits = token.lstrip("+-").lstrip("0") or "0"
    if len(digits) > 19:
        return False
    value = -int(digits) if token.startswith("-") else int(digits)
    return _INT64.min <= value <= _INT64.max


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format: "n m" then m lines "u v".  A lone
    surrogate, which no UTF-8 file holds, is refused as not UTF-8."""
    data = text.encode("utf-8", "surrogatepass")
    return _parse_digraph(io.BytesIO(data), len(data), "<string>")


def _parse_digraph(fh: BinaryIO, size: int, source: str) -> Digraph:
    """The digraph in the bytes of fh, at most size of them (a pipe's size
    reads 0), read once, block by block; source names fh in messages.

    The header's block is decoded to find the header line, and the rest of
    that block continues as bytes.  After the header, a block of plain
    "u v" lines is read by _plain_rows from its bytes; any other block is
    decoded, a byte that is not UTF-8 raising BadParameter naming its
    offset, and read by np.loadtxt.  When loadtxt fails, that block's
    lines are scanned to raise BadParameter (or LabelOutOfRange for a
    label beyond int64) naming the first bad line: every earlier block
    passed the kernel or loadtxt, and both accept only lines the scan
    accepts.  Digraph then reports the first loop or label outside 0..n-1.
    """
    found = _header(_blocks(fh), source)
    if found is None:
        raise BadParameter("empty digraph file")
    header, blocks = found
    head = header.split()
    if len(head) != 2:
        raise BadParameter(f"header must be 'n m', got {header!r}")
    n, m = parse_ints(head, header)
    # an arc line takes at least 4 bytes ("u v" and a line break), so
    # size bounds the arcs of a file however many its header promises
    a = np.empty((max(0, min(m, size // 4 + 1)), 2), dtype=np.int64)
    k = 0
    for at, block in blocks:
        rows = _plain_rows(block)
        if rows is None:
            lines = _decode(block, source, at).splitlines()
            # loadtxt stays: 216k CRLF, tab or commented arc lines take it 15-25 ms, the scan
            # below 0.7-1.3 s (best of 5, 2-core Xeon); a leading "0 0" row fixes the width
            # at two columns and keeps a block without arcs from loadtxt's no-data warning
            try:
                rows = np.loadtxt(itertools.chain(["0 0"], lines), dtype=np.int64, comments="#", ndmin=2)[1:]
            except ValueError as e:
                for line in _content_lines(lines):
                    parts = line.split()
                    if len(parts) != 2:
                        raise BadParameter(f"arc line must be 'u v', got {line!r}")
                    _check_ints(parts, line)
                    if not all(map(_fits_int64, parts)):
                        raise LabelOutOfRange(f"arc line {line!r} has a label outside 0..{n - 1}")
                raise BadParameter(f"unreadable arc lines: {e}")  # loadtxt's complaint, if no line
        if k + len(rows) > len(a):  # a pipe's size reads 0; a file may hold more than m arcs
            a = np.resize(a, (max(2 * len(a), k + len(rows)), 2))
        a[k : k + len(rows)] = rows
        k += len(rows)
        del rows  # before the next block's temporaries
    if k != m:
        raise BadParameter(f"header promises {m} arcs, file has {k}")
    return Digraph(n, a[:k])


def format_digraph(D: Digraph) -> str:
    """The edge-list text of D, arcs in row-major order; each row's lines
    are joined from one cached str per label."""
    labels = list(map(str, range(D.n)))
    out = [f"{D.n} {D.arc_count}\n"]
    for u, row in enumerate(D.bool_matrix()):
        if vs := np.flatnonzero(row).tolist():
            head = labels[u] + " "
            out.append(head + f"\n{head}".join(map(labels.__getitem__, vs)) + "\n")
    return "".join(out)


def read_digraph(path: str) -> Digraph:
    with open(path, "rb") as fh:
        return _parse_digraph(fh, os.fstat(fh.fileno()).st_size, path)


def parse_pattern(text: str) -> tuple[PatternDigraph, dict[int, int]]:
    """Parse a pattern file: edge list plus optional "map a v" lines
    giving a (partial or full) branch map, at most one line per a."""
    lines = _content_lines(text.splitlines())
    branch: dict[int, int] = {}
    graph_lines = []
    for line in lines:
        if line.startswith("map "):
            parts = line.split()
            if len(parts) != 3:
                raise BadParameter(f"map line must be 'map a v', got {line!r}")
            a, v = parse_ints(parts[1:], line)
            if a in branch:
                raise BadParameter(f"map line {line!r} repeats pattern vertex {a}")
            branch[a] = v
        else:
            graph_lines.append(line)
    D = parse_digraph("\n".join(graph_lines))
    return PatternDigraph(D), branch


def read_pattern(path: str) -> tuple[PatternDigraph, dict[int, int]]:
    with open(path, "rb") as fh:
        return parse_pattern(_decode(fh.read(), path))


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
