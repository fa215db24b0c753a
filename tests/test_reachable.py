"""Every module-level function of the package is named by the package.

A function that only the tests call belongs in `tests/oracles.py`, and
one that nothing names is dead.  perfbench's tracer rebinds the names in
its FUNCTIONS table, so those count as named too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# library constructors for users of the package; the CLI reads files instead
LIBRARY = {"build_number_field", "build_atomic", "serialize_algebra"}


def named(node, bound=frozenset()) -> set:
    """The bare names an AST node reads from module scope.

    A name that an enclosing function binds itself, as an argument or an
    assignment target, is that function's own, and an attribute such as
    self.add is not a module-level name: neither counts.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        bound = bound | {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                         + [a.vararg, a.kwarg] if x}
        bound |= {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    own = {node.id} if isinstance(node, ast.Name) and node.id not in bound else set()
    return own.union(*(named(child, bound) for child in ast.iter_child_nodes(node)))


def unreferenced(sources, also_named=()) -> list:
    """Module-level functions of the sources that nothing runs: no other
    top-level statement names them, except other such functions, and
    also_named does not hold them."""
    live = [s for source in sources for s in ast.parse(source).body]
    dead = []
    while True:
        found = [s for s in live if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and s.name not in also_named
                 and not any(s.name in named(other) for other in live if other is not s)]
        if not found:
            return sorted(s.name for s in dead)
        dead += found
        live = [s for s in live if s not in found]


def tracer_functions() -> set:
    """The attribute names in perfbench/tracer.py's FUNCTIONS table."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (table,) = [ast.literal_eval(s.value) for s in tree.body if isinstance(s, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in s.targets)]
    return {attribute for _, _, attribute in table}


def test_unreferenced_functions_are_found():
    # a calls only itself, b is read only as the attribute m.b, c is named
    # only by the dead e, and f by the live main
    sources = ["def a():\n    return a()\n\ndef b():\n    pass\n",
               "import m\n\ndef c():\n    return m.b()\n\ndef e():\n    return c()\n",
               "def f():\n    pass\n\nif __name__ == '__main__':\n    f()\n"]
    assert unreferenced(sources) == ["a", "b", "c", "e"]
    assert unreferenced(sources, also_named={"e"}) == ["a", "b"]


def test_homonyms_are_not_uses():
    # the live g and h only read an argument, a local and an attribute named
    # scale, so the module-level scale is dead
    source = ("def scale():\n    pass\n\ndef g(scale):\n    return scale\n\n"
              "def h(row):\n    scale = row.scale\n    return [scale for _ in row]\n\n"
              "g(1)\nh([])\n")
    assert unreferenced([source]) == ["scale"]
    assert unreferenced([source + "scale()\n"]) == []


def test_tracer_table_is_read():
    assert {"assess_domain", "complete_basis", "from_flat"} <= tracer_functions()


def test_every_package_function_is_named():
    sources = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "cohomolab").glob("*.py"))]
    assert unreferenced(sources, tracer_functions() | LIBRARY) == []
