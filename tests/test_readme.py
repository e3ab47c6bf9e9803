"""The README's Python example runs as written and prints what it claims."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs_and_matches_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    source = blocks[0]
    lines = source.splitlines()
    namespace = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            # An expression line states its value in a trailing comment.
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            _, _, comment = lines[node.lineno - 1].partition("#")
            assert value == ast.literal_eval(comment.strip()), lines[node.lineno - 1]
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
