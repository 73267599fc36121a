"""The README's library tour runs as written.

Its ``python`` blocks run in one namespace, in order.  A comment at the
end of an expression statement is the value that statement gives, and
comment lines right below a statement are the lines it prints.  The
tour reads its model through ``importlib.resources``, so the test also
passes against an installed package with no source tree on the path.
"""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_blocks() -> list[str]:
    """The ``python`` blocks of the "Quick tour (library)" section."""
    section = README.read_text().split("## Quick tour (library)\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def comments(source: str) -> dict[int, tuple[str, bool]]:
    """Line number -> (text of the comment on it, whether the comment
    stands alone on its line)."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            out[tok.start[0]] = (tok.string[1:].strip(), not tok.line[: tok.start[1]].strip())
    return out


def shown(value) -> str:
    """A value as a tour comment writes it: a tuple as the ``str`` of its
    items joined by ", ", anything else as its ``repr``."""
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return repr(value)


def test_library_tour_runs_and_gives_its_comments():
    namespace: dict = {}
    checked = 0
    for block in tour_blocks():
        notes = comments(block)
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if isinstance(stmt, ast.Expr):
                    value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                else:
                    exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            end = stmt.end_lineno
            if isinstance(stmt, ast.Expr) and end in notes and not notes[end][1]:
                assert shown(value) == notes[end][0], ast.unparse(stmt)
                checked += 1
            printed = []
            while end + 1 + len(printed) in notes and notes[end + 1 + len(printed)][1]:
                printed.append(notes[end + 1 + len(printed)][0])
            assert out.getvalue().splitlines() == printed, ast.unparse(stmt)
            checked += len(printed)
    assert checked
