"""Record the reference fingerprints that run.py compares outputs against.

    python3 benchmarks/record_reference.py

Runs the first batches of every workload on the default seed, untimed,
checks each verdict against the benchmark's own recomputation and writes
``reference.json``: one fingerprint per operation (clan supports,
round-trip images, check names, verdicts and witnesses), concatenated per
workload.  The batches recorded cover about twice the operations of a
20-second run; operations past them are checked without a fingerprint.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, Refused, check_preconditions, git_commit, import_fresh, timed
from workloads import DEFAULT_SEED, FINGERPRINT_HEX, WORKLOADS

BATCHES = {"roundtrip-population": 4, "suite-6": 10, "naturality": 20}


def main():
    try:
        check_preconditions()
        api = import_fresh()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    fingerprints = {}
    for name, batches in BATCHES.items():
        workload = WORKLOADS[name]
        digests = []
        for p in range(batches):
            for item in workload.batch(api, DEFAULT_SEED, p):
                op = timed(api, workload, item)
                issues = [op.error] if op.error is not None else workload.problems(op.evidence)
                if issues or item.index != len(digests):
                    print(f"{name} operation {item.index}: {issues}", file=sys.stderr)
                    return 1
                digests.append(workload.fingerprint(op.evidence))
        fingerprints[name] = "".join(digests)
        print(f"{name}: {len(digests)} operations", file=sys.stderr)
    payload = {
        "seed": DEFAULT_SEED,
        "hex": FINGERPRINT_HEX,
        "commit": git_commit(),
        "fingerprints": fingerprints,
    }
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
