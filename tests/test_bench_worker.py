"""The benchmark worker starts against this checkout."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_worker_setup_only_reads_numpy():
    # the worker reads numpy's version from sys.modules after `import
    # cypairs`, so the package must keep numpy loaded
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["numpy"]
