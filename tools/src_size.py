"""Print the raw and code line counts and the loop count of ``src/kmgeom``, and apart
from that total those of ``tests/reference.py``, the pointwise references moved out
of the package.

Code lines are the lines that are not blank, not a comment and not part of a
docstring (of a module, class or function).  Loops are the ``for`` and ``while``
statements plus the ``for`` clauses of comprehensions.  Run from anywhere:

    python tools/src_size.py
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
