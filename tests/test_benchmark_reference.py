"""The benchmark's reference fingerprints hold for the program.

Each workload of `benchmarks/run.py` fingerprints the check names,
verdicts and witnesses of its operations, and the benchmark compares
them with `benchmarks/reference.json`.  Here the first 40 operations of
every workload run untraced, as `run.run` runs them, and every one of
them must pass and be compared with a recorded fingerprint, so an edit
that changes a fingerprinted line fails here first.

The workloads run in a child process: `run.import_fresh` drops every
`contactlab` module from `sys.modules`, which would leave this process's
imports stale.  The child's environment holds no `CONTACTLAB_*` budget
variable, as the benchmark refuses to run under one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
from workloads import DEFAULT_SEED, WORKLOADS
out = {}
for name in WORKLOADS:
    report, result = run.run(name, DEFAULT_SEED, 0.0, 0, limit=40)
    verdicts = report["verdicts"]
    out[name] = [result["correct"], result["attempted"], verdicts["fingerprints_compared"],
                 verdicts["failures"]]
print(json.dumps(out))
"""


def test_every_workload_matches_its_reference_fingerprints():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CONTACTLAB_")}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(BENCHMARKS)],
        cwd=BENCHMARKS.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert results
    for name, (correct, attempted, compared, failures) in results.items():
        assert correct, (name, failures)
        assert attempted > 0, name
        assert compared == attempted, (name, compared, attempted)
