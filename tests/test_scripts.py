import os
import subprocess
import sys

import mnpred as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_severity_table_demo_runs():
    src = os.path.dirname(os.path.dirname(mp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "scripts", "severity_table_demo.py"),
            "--methods", "pointwise,marginal", "--B", "200",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # one interval row per method in the side-by-side table
    for method in ("pointwise", "marginal"):
        rows = [l for l in lines if l.split(" ", 1)[0] == method]
        assert len(rows) == 1, done.stdout
        assert rows[0].count("[") == 5
