"""The benchmark still runs against the package as it is.

``perfbench/run.py`` wraps package functions by module attribute name, so a
function that moves or is renamed breaks ``--trace 1`` without failing any
other test; and its workloads build configs and monitors through the
package's own names and check the artifacts against recorded digests. These
tests run the benchmark's own ``install_spans`` and ``unwrap_all``, and one
pass of each workload, in fresh interpreters, writing no bytecode into the
benchmark directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ["nf-batch", "online", "stochastic"])
def test_one_pass_of_each_workload_is_correct(workload):
    # --seconds 0 runs the six set-ups and one pass of every op.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    report = json.loads(lines[-1])
    assert report["correct"] and report["failed"] == 0, done.stdout
    if workload != "online":  # the only workload without artifacts
        digests = [line for line in lines if line.startswith("digest ")]
        assert digests and all(d.endswith("(matches recorded)") for d in digests), digests
