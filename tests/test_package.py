"""The package surface: a light top-level import, and the README's library
example run as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_import_loads_no_submodule():
    code = "import json, sys, emhd1d; print(json.dumps([emhd1d.__version__, sorted(sys.modules)]))"
    done = run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    version, modules = json.loads(done.stdout)
    assert isinstance(version, str) and version
    assert [m for m in modules if m.startswith("emhd1d.")] == []


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    done = run_python(["-c", blocks[0]])
    assert done.returncode == 0, done.stderr
    slope = float(re.search(r"slope = (\S+)", done.stdout).group(1))
    assert abs(slope + 1.0) <= 0.01
