"""Smoke test: every narrative demo script, and the README's library
snippets, run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_library_snippets_run(fresh_python):
    # the python blocks under "## Library use" run in order in one interpreter,
    # so a name they import from a module that no longer holds it fails here
    section = (ROOT / "README.md").read_text().split("\n## Library use\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 2
    done = fresh_python(
        "import warnings\nwarnings.simplefilter('error', RuntimeWarning)\n" + "\n".join(blocks)
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "Rock/" in done.stdout
