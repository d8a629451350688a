"""Code lines of each module of ``src/contmon`` and their total.

A code line holds a token of code.  Blank lines, comment-only lines and
docstrings (the leading string of a module, class or function) do not count.
``--against REF`` prints each module's count at the git ref REF beside the
working tree's count and their difference; a module missing on one side
counts 0 there.

    python tools/code_lines.py
    python tools/code_lines.py --against HEAD^
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "contmon"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def counts_at(ref: str | None = None) -> dict:
    """Each module's code lines in the working tree, or at the git ref ``ref``."""
    if ref is None:
        return {path.stem: code_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    rel = SRC.relative_to(ROOT).as_posix()
    paths = _git("ls-tree", "--name-only", ref, f"{rel}/").split()
    return {Path(p).stem: code_lines(_git("show", f"{ref}:{p}")) for p in paths
            if p.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF", help="git ref to compare the working tree with")
    args = parser.parse_args(argv)
    tree = counts_at()
    if args.against is None:
        rows = list(tree.items())
        rows.append(("total", sum(tree.values())))
        width = max(len(name) for name, _ in rows)
        for name, count in rows:
            print(f"{name:<{width}} {count:5d}")
        return 0
    try:
        base = counts_at(args.against)
    except subprocess.CalledProcessError as err:
        print(f"git: {err.stderr.strip()}", file=sys.stderr)
        return 1
    names = sorted(set(base) | set(tree))
    rows = [(name, base.get(name, 0), tree.get(name, 0)) for name in names]
    rows.append(("total", sum(base.values()), sum(tree.values())))
    width, col = max(len(name) for name in names + ["module"]), max(7, len(args.against))
    print(f"{'module':<{width}} {args.against:>{col}} {'tree':>7} {'diff':>7}")
    for name, old, new in rows:
        print(f"{name:<{width}} {old:{col}d} {new:7d} {new - old:+7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
