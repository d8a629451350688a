"""``tools/code_lines.py``, the code-line count of ``src/contmon``: blank
lines, comment-only lines and docstrings do not count."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment-only line


class Disc:
    """A class docstring."""

    def area(self, r):
        """A method docstring."""
        text = """a string over two lines
        that is no docstring"""
        return math.pi * r * r, text
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, class, def, the two lines of the string, return
    assert tool.code_lines(SOURCE) == 6
    assert tool.code_lines("") == 0
