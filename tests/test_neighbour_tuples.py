"""A lint over the library source.  Out-neighbour tuples are built in
digraph.py and read only by one small-n search, the subdivision oracle,
and single arcs are read with has_arc only by Digraph itself and the
reference `covers`: everything else reads rows or entries of the
adjacency matrix.  Only the deletion certifier calls remove_vertices,
whose relabelled copy costs three n^2 gathers: the leftover cycle masks
vertices out instead.  expansion.py holds no matrix product, so the
certifiers and the falsifier never wait on BLAS threads, nor does the
d-cover grower or any cover.py code it calls; expansion.py imports no
random module, so the falsifier draws each stream with numpy calls, not
one Python call per drawn vertex; and no module
holds an assert statement, which python -O would strip.  Failures are
routed by kind: no handler names a single kind of refusal (a subclass
of InputError) to recover from it, only the CLI's main catches
DilinkError, the pipelines' loop has one handler, and every error
class but the kinds and the input checks' three has a handler.  The
edge-list reader's byte kernel raises nothing and np.loadtxt is called in
one place, so every refused arc line is named by the one scan after it,
and the reader reads its input once: read_digraph opens its path once and
nothing in fileio seeks, so a pipe reads as a file does.  Every name the
package exports has a reader outside tests: library code beyond its own
definition, a demo, or a mention in backticks in README, and so has
every public method and property of Digraph, read by name; and every
private name a module defines at its top level is read in the library
beyond its own definition, so no helper lives on for tests alone.  Every
parameter of every function and method is read in its body: a
parameter nothing reads is a knob that turns nothing.  No function
builds a set from the indices np.flatnonzero or .nonzero() return: the
router, the ladder sampler and the threading share one bool mask of
free vertices, and a label set made from a mask is a second copy of it
(robust_out_neighbourhood, whose answer is a set, aside)."""

import ast
import re
from pathlib import Path

import pytest

from dilink import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "dilink"
TUPLE_READS = {"out_neighbors"}
ALLOWED = {("subdivision", "brute_force_subdivision")}
ARC_READS = {"has_arc"}
ARC_READERS = {("cover", "covers"), ("digraph", "Digraph")}
REMOVALS = {"remove_vertices"}
REMOVERS = {("expansion", "certify_survives_deletion")}
PRODUCTS = {"dot", "matmul", "einsum"}
MODULES = sorted(SRC.glob("*.py"))
README = SRC.parent.parent / "README.md"
DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))
# perfbench reads it; the benchmark change of ROADMAP item 1b deletes it
NO_READER = {"cut_cycle_segments"}
# perfbench reads it; the benchmark change of ROADMAP item 1b deletes it
NO_MEMBER_READER = {"in_masks"}


def scoped_nodes(tree: ast.AST, pick):
    """(node, enclosing classes and functions) of every node below tree
    that pick accepts."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if pick(child):
                yield child, scope
            yield from walk(child, inner)

    return list(walk(tree, ()))


def called_name(node: ast.AST):
    """The name a call calls, as an attribute or as a bare name; None for
    anything but a call."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def method_calls(tree: ast.AST, methods):
    """(line, method, enclosing classes and functions) of every call of
    one of the methods, as an attribute or as a bare name."""
    return [
        (n.lineno, called_name(n), scope)
        for n, scope in scoped_nodes(tree, lambda n: called_name(n) in methods)
    ]


def calls_outside(path: Path, methods, allowed) -> list[str]:
    module = path.stem
    return [
        f"{path.name}:{line} {'.'.join(scope) or '<module>'} calls {attr}"
        for line, attr, scope in method_calls(ast.parse(path.read_text()), methods)
        if not any((module, f) in allowed for f in scope)
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "digraph.py"], ids=lambda p: p.name
)
def test_only_the_backtracking_searches_read_neighbour_tuples(path):
    found = calls_outside(path, TUPLE_READS, ALLOWED)
    assert not found, found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_digraph_and_the_reference_checks_read_single_arcs(path):
    found = calls_outside(path, ARC_READS, ARC_READERS)
    assert not found, found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_deletion_certifier_removes_vertices(path):
    found = calls_outside(path, REMOVALS, REMOVERS)
    assert not found, found


def test_the_lint_sees_a_call_inside_a_nested_function():
    tree = ast.parse("def f(D):\n    def g():\n        return D.out_neighbors(0)\n")
    assert method_calls(tree, TUPLE_READS) == [(3, "out_neighbors", ("f", "g"))]
    tree = ast.parse("class C:\n    def m(self, D):\n        return D.has_arc(0, 1)\n")
    assert method_calls(tree, ARC_READS) == [(3, "has_arc", ("C", "m"))]
    tree = ast.parse(
        "def f(D):\n    def g():\n        return remove_vertices(D, [0])\n"
        "    return digraph.remove_vertices(D, [1])\n"
    )
    assert method_calls(tree, REMOVALS) == [
        (3, "remove_vertices", ("f", "g")), (4, "remove_vertices", ("f",))
    ]


def test_the_library_holds_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


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


def random_imports(tree: ast.AST):
    """Lines of every import of the standard random module."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "random" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random"
    )


def test_expansion_imports_no_random_module():
    found = random_imports(ast.parse((SRC / "expansion.py").read_text()))
    assert not found, found


def test_the_lint_sees_every_kind_of_random_import():
    tree = ast.parse(
        "import random\nimport os, random as r\nfrom random import sample\n"
        "import numpy as np\nfrom numpy import random as nr\nrng = np.random.default_rng(0)\n"
    )
    assert random_imports(tree) == [1, 2, 3]


def test_the_cover_grower_holds_no_matrix_product():
    # build_d_cover counts with popcounts; verify_d_cover, which it never
    # calls, keeps its float32 product
    tree = ast.parse((SRC / "cover.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    reached, todo = set(), ["build_d_cover"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in defs]
    assert {"cover_arcs", "_random_pairs", "_prefix_needed", "_short_entries"} < reached
    assert "verify_d_cover" not in reached
    found = [(name, *hit) for name in sorted(reached) for hit in matrix_products(defs[name])]
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


def handlers(tree: ast.AST):
    """(line, names caught, enclosing classes and functions) of every
    except clause; a bare except catches the name "<any>"."""

    def names(node):
        if node is None:
            return ("<any>",)
        if isinstance(node, ast.Tuple):
            return tuple(n for e in node.elts for n in names(e))
        return (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "?"),)

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.ExceptHandler):
                yield child.lineno, names(child.type), scope
            yield from walk(child, inner)

    return list(walk(tree, ()))


def caught_errors():
    """(module, enclosing function, line, class) of every dilink error
    an except clause in the library names."""
    return [
        (path.stem, scope[-1] if scope else "<module>", line, getattr(errors, name))
        for path in MODULES
        for line, names, scope in handlers(ast.parse(path.read_text()))
        for name in names
        if isinstance(getattr(errors, name, None), type)
    ]


def test_no_handler_recovers_from_one_kind_of_refusal():
    # NotOriented only turns one line of check-degrees' report into "skipped"
    found = [
        h for h in caught_errors()
        if issubclass(h[3], errors.InputError) and h[3] is not errors.InputError
        and h != ("cli", "cmd_check_degrees", h[2], errors.NotOriented)
    ]
    assert not found, found


def test_every_error_class_beyond_the_input_checks_has_a_handler():
    # a class that no handler names is only its kind under another name
    checked = {"DilinkError", "InputError", "ConstructionFailed", "BadParameter",
               "LabelOutOfRange", "LoopArc"}
    caught = {h[3] for h in caught_errors()}
    found = [
        name for name, c in vars(errors).items()
        if isinstance(c, type) and issubclass(c, errors.DilinkError)
        and name not in checked and c not in caught
    ]
    assert not found, found


def test_only_main_catches_dilink_error():
    found = [
        h for h in caught_errors()
        if h[3] is errors.DilinkError and h[:2] != ("cli", "main")
    ]
    assert not found, found


def test_the_pipeline_loop_has_one_handler():
    tree = ast.parse((SRC / "pipeline.py").read_text())
    assert [names for _, names, scope in handlers(tree) if "_drive" in scope] == [
        ("ConstructionFailed",)
    ]


def test_the_lint_sees_every_kind_of_handler():
    tree = ast.parse(
        "def f():\n"
        "    def g():\n"
        "        try:\n"
        "            pass\n"
        "        except (errors.BadParameter, OSError):\n"
        "            pass\n"
        "        except:\n"
        "            pass\n"
    )
    assert handlers(tree) == [
        (5, ("BadParameter", "OSError"), ("f", "g")), (7, ("<any>",), ("f", "g"))
    ]


def test_the_edge_list_kernel_raises_nothing_and_loadtxt_has_one_call():
    tree = ast.parse((SRC / "fileio.py").read_text())
    kernel = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_plain_rows"
    ]
    assert len(kernel) == 1
    raises = [node.lineno for node in ast.walk(kernel[0]) if isinstance(node, ast.Raise)]
    assert not raises, raises
    assert [scope for _, _, scope in method_calls(tree, {"loadtxt"})] == [("_parse_digraph",)]


def test_the_edge_list_reader_reads_its_input_once():
    tree = ast.parse((SRC / "fileio.py").read_text())
    assert method_calls(tree, {"seek"}) == []
    opens = [scope for _, _, scope in method_calls(tree, {"open"}) if scope == ("read_digraph",)]
    assert opens == [("read_digraph",)]


def exported_names():
    """(name in its module, name in dilink) of every name __init__ imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [
        (alias.name, alias.asname or alias.name)
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def reads(tree: ast.Module, name: str) -> bool:
    """Whether the module reads name, as a bare name or an attribute,
    outside a top-level definition of that name."""
    return any(
        (isinstance(node, ast.Name) and node.id == name
         or isinstance(node, ast.Attribute) and node.attr == name)
        and isinstance(node.ctx, ast.Load)
        for stmt in tree.body
        if getattr(stmt, "name", None) != name
        for node in ast.walk(stmt)
    )


def test_the_lint_reads_past_a_names_own_definition():
    assert not reads(ast.parse("def f(n):\n    return f(n - 1)\n"), "f")
    assert reads(ast.parse("def f():\n    pass\ndef g(m):\n    return m.f\n"), "f")
    # an assignment, to a name or to an attribute, is no read
    assert not reads(ast.parse("_T = 1\ndef g(m):\n    m._T = 2\n"), "_T")


def test_every_exported_name_has_a_reader_outside_tests():
    library = [ast.parse(p.read_text()) for p in MODULES if p.name != "__init__.py"]
    demos = [ast.parse(p.read_text()) for p in DEMOS]
    quoted = " ".join(re.findall(r"```.*?```|`[^`\n]+`", README.read_text(), re.S))
    found = {
        public for name, public in exported_names()
        if not any(reads(tree, name) for tree in library)
        and not any(reads(tree, public) for tree in demos)
        and not re.search(rf"\b{public}\b", quoted)
    }
    assert found == NO_READER, found ^ NO_READER


def digraph_members():
    """Every public method and property the Digraph class defines."""
    tree = ast.parse((SRC / "digraph.py").read_text())
    [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Digraph"]
    return {
        n.name for n in cls.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
    }


def test_the_lint_sees_every_digraph_member():
    assert digraph_members() >= {"arcs", "has_arc", "out_neighbors", "bool_matrix", "in_masks"}
    assert not {"__eq__", "_of_matrix"} & digraph_members()


def test_every_digraph_member_has_a_reader_outside_tests():
    # a query only tests read is a second copy of what the matrix says
    library = [ast.parse(p.read_text()) for p in MODULES]
    demos = [ast.parse(p.read_text()) for p in DEMOS]
    quoted = " ".join(re.findall(r"```.*?```|`[^`\n]+`", README.read_text(), re.S))
    found = {
        name for name in digraph_members()
        if not any(reads(tree, name) for tree in library + demos)
        and not re.search(rf"\.{name}\b", quoted)
    }
    assert found == NO_MEMBER_READER, found ^ NO_MEMBER_READER


def unread_parameters(tree: ast.AST):
    """(line, function, parameter) of every parameter of a function,
    method or lambda that its body never reads; a read inside a nested
    function counts."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            found += [(node.lineno, name, q.arg) for q in params if q.arg not in read]
    return sorted(found)


def test_the_lint_sees_an_unread_parameter_in_a_method_and_a_nested_function():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, D, n):\n"
        "        return D.n\n"
        "def f(D, *, k=1):\n"
        "    def g(x, y):\n"
        "        y = D\n"
        "        return x + k\n"
        "    return g\n"
    )
    assert unread_parameters(tree) == [(2, "m", "n"), (2, "m", "self"), (5, "g", "y")]
    # a parameter read only by a nested function or a lambda is read
    tree = ast.parse("def f(D, n):\n    def g():\n        return D\n    return lambda: n + g()\n")
    assert unread_parameters(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    found = unread_parameters(ast.parse(path.read_text()))
    assert not found, found


INDEX_CALLS = {"flatnonzero", "nonzero"}
# its answer is a vertex set by definition, returned, not a working copy
SET_ANSWERS = {("expansion", "robust_out_neighbourhood")}


def sets_of_indices(tree: ast.AST):
    """(line, enclosing classes and functions) of every set or frozenset
    call and set comprehension that reads a flatnonzero or nonzero call."""

    def builds_from_indices(node):
        builds = isinstance(node, ast.SetComp) or (
            isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("set", "frozenset")
        )
        return builds and bool(method_calls(node, INDEX_CALLS))

    return [(n.lineno, scope) for n, scope in scoped_nodes(tree, builds_from_indices)]


def test_the_lint_sees_a_set_built_from_mask_indices():
    tree = ast.parse(
        "import numpy as np\n"
        "def f(free):\n"
        "    blocked = set(np.flatnonzero(~free).tolist())\n"
        "    def g():\n"
        "        return frozenset(free.nonzero()[0]), {int(v) for v in nonzero(free)}\n"
        "    return list(np.flatnonzero(free)), {1, 2}, set(range(3))\n"
    )
    assert sets_of_indices(tree) == [(3, ("f",)), (5, ("f", "g")), (5, ("f", "g"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_turns_a_mask_into_a_label_set(path):
    found = [
        (line, scope) for line, scope in sets_of_indices(ast.parse(path.read_text()))
        if not any((path.stem, f) in SET_ANSWERS for f in scope)
    ]
    assert not found, found


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines at its top level, as a
    function, a class or an assigned variable; dunders aside."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """module.name of every private top-level name that no module reads
    beyond the name's own definition."""
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in sorted(private_definitions(tree))
        if not any(reads(other, name) for other in trees.values())
    ]


def test_the_lint_sees_an_unread_private_helper():
    trees = {
        "a": ast.parse(
            "_K = 3\n_L: int = 4\n__all__ = []\n"
            "def _unused(n):\n    return _unused(n - 1)\n"
            "def _used():\n    return _K\n"
            "class _Spare:\n    pass\n"
            "def f():\n    return _used()\n"
        ),
        "b": ast.parse("from a import _L\ndef g():\n    return _L\n"),
    }
    assert unread_private_names(trees) == ["a._Spare", "a._unused"]


def test_every_private_name_is_read_in_the_library():
    # a helper nothing calls is code kept alive by tests alone
    found = unread_private_names({p.stem: ast.parse(p.read_text()) for p in MODULES})
    assert not found, found
