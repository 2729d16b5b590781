"""Importing the package costs no numpy, and the package runs without it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


def _python(*flags, code):
    """Run `code` in a fresh interpreter with `src` first on its path."""
    return subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": ""},
    )


def test_import_runs_no_numpy_code():
    # numpy stays a lazy entry until something reads it: its version is the
    # installed one, and a later `import numpy` is the real module
    proc = _python(code="\n".join([
        "import importlib.metadata",
        "import cypairs, cypairs.cli",
        "assert 'numpy._core' not in sys.modules, 'importing cypairs ran numpy'",
        "assert sys.modules['numpy'].__version__ == importlib.metadata.version('numpy')",
        "import numpy",
        "assert numpy.arange(3).sum() == 3",
    ]))
    assert proc.returncode == 0, proc.stderr.decode()


def test_verify_runs_without_numpy():
    # -S leaves site-packages, and numpy with it, off the path
    proc = _python("-S", code="\n".join([
        "from cypairs import cli",
        "cli.main(['verify', '--n', '2,3', '--trials', '2', '--seed', '1', '--json'])",
        "assert 'numpy' not in sys.modules",
    ]))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / "verify_n2_3.json").read_bytes()
