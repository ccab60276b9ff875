"""Print the raw and code line counts and the loop count of ``src/kmgeom``, and apart
from that total those of ``tests/reference.py``, the pointwise references moved out
of the package.

Code lines are the lines that are not blank, not a comment and not part of a
docstring (of a module, class or function).  Loops are the ``for`` and ``while``
statements plus the ``for`` clauses of comprehensions.  Run from anywhere:

    python tools/src_size.py

After the sizes it lists the functions and methods of ``src/kmgeom`` that no
code path from ``cli.main`` names.  The scan is static and goes by name: a
reached body reaches every function or method of a name it uses (as a name or an
attribute), the body of every module-level table it names (such as
``catalog._ENTRIES``), and the dunder methods of every class it names.  The
package's ``__init__`` (its export table) is left out, so a name that only it
lists shows as unreachable.  Dynamic lookups (``getattr`` with a computed name)
are not followed.
"""

import ast
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "kmgeom")
REFERENCE = os.path.join(ROOT, "tests", "reference.py")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)


def count(path: str) -> tuple[int, int, int]:
    """(raw, code) line counts and the loop count of the Python file ``path``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    tree = ast.parse(text)
    doc = docstring_lines(tree)
    code = sum(
        1 for no, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and no not in doc
    )
    loops = sum(isinstance(node, LOOPS) for node in ast.walk(tree))
    return len(lines), code, loops


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node: ast.AST) -> set[str]:
    """The names and attribute names used under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreachable() -> list[str]:
    """``module.function`` and ``module.Class.method`` of ``src/kmgeom`` (``__init__``
    left out) that no code path from ``cli.main`` names, by the static scan above."""
    defs, tables = {}, {}  # name -> [(qualified name, node)]; table name -> [value]
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        tables.setdefault(target.id, []).append(node.value)
            if not isinstance(node, (ast.ClassDef, *FUNCTIONS)):
                continue
            qual = f"{name[:-3]}.{node.name}"
            members = [(qual, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{qual}.{m.name}", m) for m in node.body if isinstance(m, FUNCTIONS)]
            for q, member in members:
                defs.setdefault(member.name, []).append((q, member))
    reached, seen = {"cli.main"}, set()
    todo = [node for qual, node in defs["main"] if qual == "cli.main"]
    while todo:
        node = todo.pop()
        for used in _names(node) - seen:
            seen.add(used)
            todo += tables.get(used, [])
            for qual, member in defs.get(used, []):
                reached.add(qual)
                if isinstance(member, ast.ClassDef):  # its dunders run implicitly
                    dunders = [m for m in member.body if isinstance(m, FUNCTIONS)
                               and m.name.startswith("__") and m.name.endswith("__")]
                    reached.update(f"{qual}.{m.name}" for m in dunders)
                    todo += dunders
                else:
                    todo.append(member)
    return sorted(qual for pairs in defs.values() for qual, member in pairs
                  if qual not in reached and not isinstance(member, ast.ClassDef))


def main() -> int:
    names = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    raw = code = loops = 0
    for name in names:
        r, c, n = count(os.path.join(SRC, name))
        raw, code, loops = raw + r, code + c, loops + n
        print(f"{name:18s} {r:5d} {c:5d} {n:5d}")
    print(f"{'src/kmgeom':18s} {raw:5d} {code:5d} {loops:5d}  (raw, code lines, loops)")
    r, c, n = count(REFERENCE)
    print(f"{'tests/reference.py':18s} {r:5d} {c:5d} {n:5d}  (moved out of src/kmgeom; not in its total)")
    found = unreachable()
    print(f"not reached from cli.main ({len(found)}, static scan by name):")
    for qual in found:
        print(f"  {qual}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
