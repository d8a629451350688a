"""``tools/code_lines.py``, the code-line count of ``src/contmon``: blank
lines, comment-only lines and docstrings do not count."""

import importlib.util
import os
import subprocess
import sys
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


def test_code_lines_against_a_git_ref(tmp_path):
    # a two-commit repository: the first commit holds modules a and b, the
    # second drops b, and the working tree grows a and adds c
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "code_lines.py").write_text(TOOL.read_text())
    pkg = tmp_path / "src" / "contmon"
    pkg.mkdir(parents=True)
    env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@example.org",
               GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@example.org")

    def git(*args):
        subprocess.run(["git", "-c", "commit.gpgsign=false", *args], cwd=tmp_path, env=env,
                       check=True, capture_output=True)

    git("init", "-q")
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (pkg / "b.py").unlink()
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    (pkg / "a.py").write_text("x = 1\ny = 2\n# a comment\nz = 3\n")
    (pkg / "c.py").write_text("w = 0\n")
    out = subprocess.run([sys.executable, "tools/code_lines.py", "--against", "HEAD^"],
                         cwd=tmp_path, check=True, capture_output=True, text=True).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["module", "HEAD^", "tree", "diff"],
                    ["a", "1", "3", "+2"],
                    ["b", "2", "0", "-2"],
                    ["c", "0", "1", "+1"],
                    ["total", "3", "4", "+1"]]
    bad = subprocess.run([sys.executable, "tools/code_lines.py", "--against", "nosuch"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert bad.returncode == 1 and bad.stderr.startswith("git: ")
