"""Smoke tests: every narrated script under demos/ runs to completion, and
the README's Python examples print what they say they print."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_are_present():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(script):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_the_readme_examples_print_their_comment_lines():
    # the Python blocks run in order in one namespace; each print is
    # followed by a comment holding the exact line it prints, and no other
    # line is a comment
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    expected = []
    for block in blocks:
        lines = block.splitlines()
        for before, line in zip(lines, lines[1:]):
            if line.startswith("#"):
                assert before.startswith("print("), line
                expected.append(line.removeprefix("# "))
    printed = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(printed):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert printed.getvalue().splitlines() == expected
    assert len(expected) == 3
