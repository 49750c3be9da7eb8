"""Count the code lines of each module of ``src/mzsim`` and their total.

A code line is a line that is not blank, not a comment alone, and not part
of a module, class or function docstring.  Standard library only:

    python tools/code_lines.py
"""

import ast
import pathlib


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers held by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in skip)


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "mzsim"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,}  {path.relative_to(root)}")
    print(f"{total:6,}  total")


if __name__ == "__main__":
    main()
