"""The code-line counter in ``tools/codelines.py`` keeps its rule.

A line counts when it holds a token other than a comment and is not part
of a module, class or function docstring.  The tool is loaded from its
file; nothing of it runs but the count.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment-only line


class Box:
    """Class docstring."""

    size = (
        1,

        2,
    )

    def area(self):
        """Function
        docstring."""
        text = """a string that is no docstring,

        over three lines"""
        return math.pi * self.size[0] + len(text)
'''


def test_counts_code_lines_only():
    # import, class, size = (, 1, 2, ), def, the three lines of text and
    # return: neither the blank line inside the tuple nor any docstring
    assert codelines.code_lines(SOURCE) == 11


def test_docstring_lines():
    assert codelines.docstring_lines(SOURCE) == {1, 2, 10, 19, 20}

