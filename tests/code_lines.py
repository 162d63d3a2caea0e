"""Count the code lines of each file under src/cbrsim and in total.

    python3 tests/code_lines.py
    python3 tests/code_lines.py --against OTHER_SRC

A code line is a physical line that holds a token other than a comment or a
docstring: blank lines, comment lines and docstring lines do not count, and
every line of a statement or a string that spans several lines does.
A docstring is the string that opens a module, class or function body.

--against OTHER_SRC (a checkout, its src directory or a package directory)
prints each file's count there and here and the difference, here minus
there. Standard library only; it does not import cbrsim.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Optional

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cbrsim"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstrings(tree: ast.AST) -> List[ast.Expr]:
    """The docstring statement of each module, class and function in tree:
    a string expression that opens its body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.append(first)
    return found


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    starts = {(doc.lineno, doc.col_offset) for doc in docstrings(ast.parse(source))}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in starts):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def package_dir(path: Path) -> Path:
    """The cbrsim package under a checkout or a src directory, or path itself."""
    for candidate in (path / "src" / "cbrsim", path / "cbrsim"):
        if candidate.is_dir():
            return candidate
    return path


def tree_counts(package: Path) -> Dict[str, int]:
    """File name relative to the package -> code lines, in name order."""
    return {str(p.relative_to(package)): code_lines(p.read_text())
            for p in sorted(package.rglob("*.py"))}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="OTHER_SRC", type=Path,
                        help="also count another tree and print the difference")
    args = parser.parse_args(argv)
    here = tree_counts(PACKAGE)
    if args.against is None:
        for name, count in here.items():
            print(f"{name:<20} {count:>6}")
        print(f"{'total':<20} {sum(here.values()):>6}")
        return 0
    there = tree_counts(package_dir(args.against))
    print(f"{'file':<20} {'other':>6} {'here':>6} {'change':>7}")
    for name in sorted(set(here) | set(there)):
        a, b = there.get(name, 0), here.get(name, 0)
        print(f"{name:<20} {a:>6} {b:>6} {b - a:>+7}")
    a, b = sum(there.values()), sum(here.values())
    print(f"{'total':<20} {a:>6} {b:>6} {b - a:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
