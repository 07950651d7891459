"""Count the code lines of ``src/srbosonic``, without docstrings or comments.

    python tools/codelines.py [--against REV]

A line counts when it holds a token other than a comment (a line inside a
multi-line string or expression holds that token) and is not part of a
module, class or function docstring.  Blank lines, comment-only lines and
docstring lines do not count.  The counts are printed per module and in
total, for the checkout as it stands on disk and, with ``--against``, for
REV, read through ``git`` from this repository (no network, no checkout).
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/srbosonic"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def checkout_sources() -> dict:
    """module file name -> source, for the package as it stands on disk."""
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def revision_sources(rev: str) -> dict:
    """module file name -> source, for the package at git revision rev."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: git("show", f"{rev}:{PACKAGE}/{name}")
            for name in sorted(names) if name.endswith(".py")}


def report(label: str, sources: dict) -> int:
    """Print one line per module and a total line; return the total."""
    total = 0
    for name, source in sources.items():
        count = code_lines(source)
        total += count
        print(f"{label}  {name:<16} {count:5d}")
    print(f"{label}  {'total':<16} {total:5d}")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision whose package is counted too")
    args = parser.parse_args(argv)
    if args.against is not None:
        try:
            sources = revision_sources(args.against)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot read {args.against!r}: {exc.stderr.strip()}", file=sys.stderr)
            return 2
        report(args.against, sources)
    report("checkout", checkout_sources())
    return 0


if __name__ == "__main__":
    sys.exit(main())
