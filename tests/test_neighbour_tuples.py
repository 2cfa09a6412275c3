"""A lint over the library source: neighbour tuples are built in
digraph.py and read only by the two small-n backtracking searches;
everything else reads rows of the adjacency matrix.  expansion.py holds
no matrix product, so the certifiers and the falsifier never wait on BLAS
threads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dilink"
TUPLE_READS = {"out_neighbors", "in_neighbors"}
ALLOWED = {("cycles", "_exact_cycle_search"), ("subdivision", "brute_force_subdivision")}
PRODUCTS = {"dot", "matmul", "einsum"}


def tuple_reads(tree: ast.AST):
    """(line, method, enclosing functions) of every neighbour-tuple call."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in TUPLE_READS
            ):
                yield child.lineno, child.func.attr, scope
            yield from walk(child, inner)

    return list(walk(tree, ()))


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "digraph.py"), ids=lambda p: p.name
)
def test_only_the_backtracking_searches_read_neighbour_tuples(path):
    module = path.stem
    found = [
        f"{path.name}:{line} {'.'.join(scope) or '<module>'} calls {attr}"
        for line, attr, scope in tuple_reads(ast.parse(path.read_text()))
        if not any((module, f) in ALLOWED for f in scope)
    ]
    assert not found, found


def test_the_lint_sees_a_call_inside_a_nested_function():
    tree = ast.parse("def f(D):\n    def g():\n        return D.in_neighbors(0)\n")
    assert tuple_reads(tree) == [(3, "in_neighbors", ("f", "g"))]


def matrix_products(tree: ast.AST):
    """(line, what) of every @, @= and dot, matmul or einsum attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_expansion_holds_no_matrix_product():
    found = matrix_products(ast.parse((SRC / "expansion.py").read_text()))
    assert not found, found


def test_the_lint_sees_every_kind_of_matrix_product():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(A, B):\n"
        "    C = A @ B\n"
        "    C @= B\n"
        "    return np.dot(A, B), np.matmul(A, B), np.einsum('ij,jk', A, B), A.dot(B)\n"
    )
    assert matrix_products(tree) == [
        (3, "@"), (4, "@"), (5, "dot"), (5, "dot"), (5, "einsum"), (5, "matmul")
    ]
