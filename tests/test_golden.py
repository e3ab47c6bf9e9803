"""Golden outputs: fixed CLI commands must keep their exact bytes.

Each case runs `g2spaces.cli.main` in-process and compares stdout, stderr
and the exit code with the files under `tests/golden/`.  After a change
that alters an output on purpose, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and say in the change description which outputs moved and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from g2spaces.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = (
    "deg6",
    "monomial-1-2",
    "monomial-1-3",
    "monomial-1-4",
    "monomial-2-3",
    "not-self-dual",
    "shifted-2-3",
)

CASES = {
    f"space-{command}-{fixture}": ["space", command, "--fixture", fixture, "--json"]
    for command in ("analyze", "witt", "standard-basis", "check-ssd")
    for fixture in FIXTURES
}
CASES.update(
    {
        "verify-table1": ["verify", "table1", "--json"],
        "verify-table1-corrupt-1-4-7": ["verify", "table1", "--corrupt", "1,4,7", "--json"],
        "verify-threeform": ["verify", "threeform", "--json"],
        "g2-flags": ["g2", "flags", "--json"],
        "spin-preimages": ["spin", "preimages", "--json"],
        "bethe-reproduce-monomial-2-3": [
            "bethe", "reproduce", "--fixture", "monomial-2-3", "--json",
        ],
        "bethe-reproduce-repeated-root": ["bethe", "reproduce", "@repeated-root.json"],
        "bethe-reproduce-shared-root": ["bethe", "reproduce", "@shared-root.json"],
        "bethe-population-monomial-2-3-depth-6-max-40": [
            "bethe", "population", "--fixture", "monomial-2-3",
            "--depth", "6", "--max-nodes", "40", "--json",
        ],
        "bethe-population-trivial-depth-8-max-60": [
            "bethe", "population", "--fixture", "trivial",
            "--depth", "8", "--max-nodes", "60", "--json",
        ],
        "bethe-population-trivial-depth-3": [
            "bethe", "population", "--fixture", "trivial", "--depth", "3", "--json",
        ],
    }
)


def run_case(argv):
    """Exit code, stdout and stderr of one CLI run; "@name" is a golden input."""
    argv = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected():
    return json.loads((GOLDEN / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out, err = run_case(CASES[name])
    want = _expected()[name]
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert (code, err) == (want["exit"], want["stderr"])


def regenerate() -> None:
    expected = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out)
        expected[name] = {"exit": code, "stderr": err}
    (GOLDEN / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
