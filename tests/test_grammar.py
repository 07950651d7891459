"""Every Python file of the project parses under the Python 3.10 grammar.

pyproject declares ``requires-python >= 3.10``.  ``ast.parse`` with
``feature_version=(3, 10)`` refuses syntax that only a later grammar
accepts (``except*``, for one), so a newer interpreter running this suite
still catches it.  The files are only read, never imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = ("src", "tests", "tools", "perfbench")


def test_every_source_parses_as_python_3_10():
    sources = sorted(path for folder in FOLDERS for path in (ROOT / folder).rglob("*.py"))
    assert {path.relative_to(ROOT).parts[0] for path in sources} == set(FOLDERS)
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
