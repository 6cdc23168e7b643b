"""README's "Library quick tour" runs as written and gives its commented results."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _leading_literal(comment: str):
    """The bracketed literal a result comment starts with, e.g. ``(1, 1) for any size``."""
    depth = 0
    for i, char in enumerate(comment):
        depth += (char in "([") - (char in ")]")
        if depth == 0:
            return ast.literal_eval(comment[: i + 1])
    raise ValueError(f"no closed literal in {comment!r}")


def test_quick_tour_runs_and_matches_its_comments():
    source = _quick_tour()
    lines = source.splitlines() + [""]
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        # the result is commented at the end of the line or alone on the next line
        inline = lines[statement.end_lineno - 1].partition("#")[2]
        following = lines[statement.end_lineno].strip()
        comment = inline or (following[1:] if following.startswith("#") else "")
        assert comment, f"README line {statement.lineno} has no commented result"
        assert value == _leading_literal(comment.strip())
        checked += 1
    assert checked >= 2
