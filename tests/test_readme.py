"""README's "Library use" block runs as written, one statement at a time."""

import ast
import re
from pathlib import Path

import pytest

from floatconv import FloatConvError

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use():
    """(source, expected (error name, text) or None) for each statement of the
    block, in order: a statement whose next line reads ``# <Error>: <text>``
    must raise exactly that error with that text."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.split("\n")
    statements = []
    for node in ast.parse(block).body:
        error = re.fullmatch(r"# ([A-Z]\w*): (.*)", lines[node.end_lineno])
        statements.append((ast.get_source_segment(block, node), error and error.groups()))
    return statements


def test_readme_library_use_runs_statement_by_statement():
    statements = library_use()
    assert ("trace = simulate_grasp(plan_grasp(model, 10.0))", None) in statements
    assert sum(error is not None for _, error in statements) == 4
    namespace = {}
    for source, error in statements:
        code = compile(source, "README.md", "exec")
        if error is None:
            exec(code, namespace)
            continue
        with pytest.raises(FloatConvError) as info:
            exec(code, namespace)
        assert (type(info.value).__name__, str(info.value)) == error, source
