import os
import subprocess
import sys

import pytest

import qkolab


@pytest.fixture
def fresh_cli(tmp_path):
    """Runs ``python -m qkolab argv --out fresh.out`` in a new interpreter,
    each call in its own new working directory and under its own
    PYTHONHASHSEED, and returns the bytes of that report."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qkolab.__file__)))
    calls = []

    def run(argv):
        calls.append(argv)
        cwd = tmp_path / f"fresh-{len(calls)}"
        cwd.mkdir()
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(len(calls)))
        subprocess.run([sys.executable, "-m", "qkolab", *argv, "--out", "fresh.out"],
                       cwd=cwd, env=env, check=True, capture_output=True, timeout=120)
        return (cwd / "fresh.out").read_bytes()

    return run
