"""The benchmark's --trace 1 hooks still find every entry point they wrap.

``perfbench/run.py`` wraps package functions by module attribute name, so a
function that moves or is renamed breaks ``--trace 1`` without failing any
other test. This runs the benchmark's own ``install_spans`` and
``unwrap_all`` in a fresh interpreter, writing no bytecode into the
benchmark directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import run, tracer, workloads

spans = tracer.Tracer()
eq = workloads.fresh_import()
run.install_spans(spans, eq)
wrapped = list(spans._restore)
spans.unwrap_all()
print(json.dumps({{
    "names": spans.names,
    "restored": all(getattr(owner, attr) is fn for owner, attr, fn in wrapped),
}}))
"""


def test_install_spans_wraps_and_restores_every_entry_point():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    code = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["restored"]
    # Spans of names the hooks reach outside their defining module
    # (monitors.increment, nfstreams.increment_tables) or as a patchable
    # module attribute (stochastic.linprog).
    for name in ("eprocess.increment", "nfstreams.increment_tables", "stochastic.linprog"):
        assert name in report["names"]
