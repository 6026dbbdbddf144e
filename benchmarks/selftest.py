"""Self-test of the benchmark, at a tiny size.

    python3 benchmarks/selftest.py

Checks that:

* every workload runs untraced and traced on a few operations, with every
  verdict passing, and reports every metric BENCHMARK.json names for its
  mode, with the same unit;
* the command line prints those metrics on its last line;
* two traced runs count the same calls and the same unique ratios;
* one flipped round-trip image makes exactly one operation fail and is
  counted in the failed share;
* the benchmark refuses to run, printing no result, when a budget
  variable is set or when the contactlab sources are missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import DEFAULT_SEED, WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 4


def declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def check_metrics(result, section, where):
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared(section), f"{where}: printed {printed}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is {m['value']!r}"


def check_tiny_runs():
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run.run(name, DEFAULT_SEED, 0.0, trace, limit=TINY)
            where = f"{name} trace={trace}"
            assert result["correct"] and result["failed"] == 0, (where, report["verdicts"])
            assert result["attempted"] == TINY * (1 + trace), (where, result["attempted"])
            assert report["verdicts"]["fingerprints_compared"] == result["attempted"], where
            check_metrics(result, section, where)


def check_traced_counts_repeat():
    counts = []
    for _ in range(2):
        _, result = run.run("naturality", DEFAULT_SEED, 0.0, 1, limit=TINY)
        counts.append({
            name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".unique_ratio"))
        })
    assert counts[0] == counts[1], "two traced runs counted different calls"


def check_corruption_is_counted():
    workload = WORKLOADS["roundtrip-population"]
    api = run.import_fresh()
    items = workload.batch(api, DEFAULT_SEED, 0)[:20]
    ops = [run.timed(api, workload, item) for item in items]
    reference = run.load_reference(workload, DEFAULT_SEED)
    assert run.verify(workload, ops, reference)["failed"] == 0
    target = next(op for op in ops if op.evidence["atoms"] >= 3)
    images = list(target.evidence["images"])
    images[1] ^= 1
    target.evidence["images"] = tuple(images)
    verdicts = run.verify(workload, ops, reference)
    assert verdicts["failed"] == 1, verdicts
    assert verdicts["failed_share"] == 1 / len(ops), verdicts
    assert verdicts["failures"][0]["index"] == target.item.index, verdicts
    issues = verdicts["failures"][0]["issues"]
    assert "round-trip images differ from the clan-set map" in issues, issues
    assert "fingerprint differs from the reference" in issues, issues
    metrics, _ = run.end_to_end(ops, [(1.0, 0)], [1e-4], items, 1.0, verdicts["failed"], 99)
    assert metrics["ok_share"] == 1 - 1 / len(ops), metrics


def command(cwd, env=None):
    """Run the benchmark's command line on naturality for one batch."""
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "naturality",
         "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def check_command_line():
    done = command(run.ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"], result
    check_metrics(result, "end_to_end", "command line")


def check_refusals():
    env = dict(os.environ, CONTACTLAB_ENUM_LIMIT="6")
    done = command(run.ROOT, env)
    assert done.returncode != 0 and done.stdout == "", (done.returncode, done.stdout)
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in DECLARED["paths"]:
            shutil.copytree(run.ROOT / path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = command(bare)
    assert done.returncode != 0 and done.stdout == "", (done.returncode, done.stdout)


def main():
    for check in (
        check_tiny_runs,
        check_traced_counts_repeat,
        check_corruption_is_counted,
        check_command_line,
        check_refusals,
    ):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
