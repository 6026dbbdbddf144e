"""Benchmark of contactlab: time to a checked verdict on seeded instances.

    python3 benchmarks/run.py --workload roundtrip-population --seed 20260810 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``contactlab`` from
its ``src`` directory.  One process, one thread, closed loop: each
operation starts when the previous one has returned.

With ``--trace 0`` the operations of the workload run untraced for
``--seconds`` seconds (at least one whole batch), and the end-to-end
metrics are printed.  With ``--trace 1`` batch 0 runs once with every
traced function wrapped (see ``spans.py``) and once more untraced on fresh
copies of the same inputs, and the per-layer metrics are printed; batch
0 is fixed by the seed, so two traced runs count the same calls.

Every verdict is checked after its operation's timer has stopped.  The
second-to-last line of output is a JSON report (environment, timing
details, operation shapes, failures); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  README.md explains
the metrics and why times are scaled by a probe of the host's speed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "contactlab"
REFERENCE = HERE / "reference.json"

PROBE_ROUNDS = 1000
# The probe's time on a quiet host with 2 CPUs; times are reported at
# that speed (see end_to_end).
PROBE_REFERENCE_S = 125e-6
PROBE_WINDOW = 4
SETUP_EVERY_S = 2.0

import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {**spans.metric_units(), "trace.overhead_ratio": "ratio"}

# Run in a fresh interpreter: import contactlab and build batch 0, then
# print the seconds since the parent spawned the process.
SETUP_CHILD = """
import sys, time
spawned = float(sys.argv[1])
sys.path[:0] = [sys.argv[2], sys.argv[3]]
import contactlab
from workloads import WORKLOADS
WORKLOADS[sys.argv[4]].batch(contactlab, int(sys.argv[5]), 0)
print(time.monotonic() - spawned)
"""


class Refused(Exception):
    """The benchmark cannot run here; nothing is measured."""


@dataclass
class Op:
    item: object
    seconds: float
    evidence: dict | None
    error: str | None
    at: int = 0


# ---------------------------------------------------------------------------
# set-up


def check_preconditions():
    budget = sorted(k for k in os.environ if k.startswith("CONTACTLAB_"))
    if budget:
        raise Refused(
            "budget variables are set (" + ", ".join(budget) + "); "
            "numbers must come from the default budgets"
        )
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise Refused(f"no {PACKAGE} sources at {SRC}; run from a source checkout")


def import_fresh():
    """Import contactlab from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = importlib.import_module(PACKAGE)
    if Path(api.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise Refused(f"{PACKAGE} was imported from {api.__file__}, not from {SRC}")
    return api


def spawn_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to batch 0 built in it."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, repr(spawned), str(SRC), str(HERE),
         workload.name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def clear_program_caches():
    """Empty the functools caches of every contactlab module."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ---------------------------------------------------------------------------
# timing


def timed(api, workload, item, tracer=None):
    if tracer is not None:
        tracer.begin_op(item.index)
    start = time.perf_counter()
    try:
        out, error = workload.call(api, item.value), None
    except Exception as exc:
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    evidence = None
    if error is None:
        try:
            evidence = workload.evidence(api, item, out)
        except Exception as exc:
            error = f"output unreadable, {type(exc).__name__}: {exc}"
    return Op(item, seconds, evidence, error)


def probe():
    """Time a fixed pure-Python loop, with the garbage collector off.  On
    a contended host it slows down in step with contactlab."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc, seen = 0, set()
        for i in range(PROBE_ROUNDS):
            acc ^= (i * 2654435761) & 0xFFFF
            seen.add(acc & 255)
        return time.perf_counter() - start
    finally:
        gc.enable()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(api, workload, seed, first, seconds, limit=None):
    """Run batches until ``seconds`` have passed, finishing batch 0 in
    any case.  A probe runs between operations, and every SETUP_EVERY_S
    seconds a set-up is timed in a fresh interpreter.

    Returns the operations, the set-ups as (seconds, probe index) pairs,
    the probe times, the op time of each whole batch and the peak RSS at
    the end of batch 0.  An operation's ``at`` is the index of the probe
    just before it."""
    deadline = time.perf_counter() + seconds
    ops, setups, probes, batches, rss = [], [], [probe()], [], None
    p, items, next_setup = 0, first, 0.0
    while True:
        spent, whole = 0.0, True
        for item in items:
            if (batches and time.perf_counter() >= deadline) or (
                limit is not None and len(ops) >= limit
            ):
                whole = False
                break
            op = timed(api, workload, item)
            op.at = len(probes) - 1
            probes.append(probe())
            ops.append(op)
            spent += op.seconds
            if time.perf_counter() >= next_setup:
                setups.append((spawn_setup(workload, seed), len(probes) - 1))
                probes.append(probe())
                next_setup = time.perf_counter() + SETUP_EVERY_S
        if rss is None:
            rss = peak_rss_mb()
        if not whole:
            break
        batches.append(spent)
        if time.perf_counter() >= deadline:
            break
        p += 1
        items = workload.batch(api, seed, p)
    return ops, setups, probes, batches, rss


# ---------------------------------------------------------------------------
# verdicts


def load_reference(workload, seed):
    """Reference fingerprints by operation index, when recorded for this
    workload and seed."""
    data = json.loads(REFERENCE.read_text())
    if seed != data["seed"]:
        return {}
    digests = data["fingerprints"].get(workload.name, "")
    width = data["hex"]
    return {i: digests[i * width:(i + 1) * width] for i in range(len(digests) // width)}


def verify(workload, ops, reference):
    """Check every operation: the failed count, the failed share, the
    number of fingerprints compared and the first few failures."""
    failed, compared, failures = 0, 0, []
    for op in ops:
        if op.error is not None:
            issues = [op.error]
        else:
            issues = workload.problems(op.evidence)
            expected = reference.get(op.item.index)
            if expected is not None:
                compared += 1
                if workload.fingerprint(op.evidence) != expected:
                    issues.append("fingerprint differs from the reference")
        if issues:
            failed += 1
            if len(failures) < 5:
                failures.append({"index": op.item.index, "shape": op.item.shape, "issues": issues})
    return {
        "failed": failed,
        "failed_share": failed / len(ops),
        "fingerprints_compared": compared,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# metrics


def shape_class(item):
    density = item.shape["density"]
    return f"atoms={item.shape['atoms']} density={'all' if density is None else round(density, 2)}"


def weighted_quantile(samples, q):
    """The smallest value whose share of the total weight at or below it
    reaches ``q``; ``samples`` are (value, weight) pairs."""
    samples = sorted(samples)
    target = q * sum(w for _, w in samples)
    reached = 0.0
    for value, weight in samples:
        reached += weight
        if reached >= target:
            return value
    return samples[-1][0]


def end_to_end(ops, setups, probes, first, rss, failed, tail_percentile):
    """The end-to-end metrics and the details of how they were taken.

    The host's speed drifts by up to about 1.7x over seconds when other
    processes share it, and the probe loop drifts with it.  Each time is
    therefore scaled to the speed at which the probe takes
    PROBE_REFERENCE_S, using the median probe time of the PROBE_WINDOW
    probes on each side of it.  Operation times are also weighted to the
    shape mix of a batch, so a run that stops inside a batch does not
    over-represent the shapes it reached: each shape class gets its share
    of batch 0, split evenly over its operations."""

    def scale(at):
        return PROBE_REFERENCE_S / statistics.median(
            probes[max(0, at - PROBE_WINDOW + 1):at + PROBE_WINDOW + 1]
        )

    share = {key: n / len(first) for key, n in Counter(map(shape_class, first)).items()}
    classes = {}
    for op in ops:
        classes.setdefault(shape_class(op.item), []).append(op.seconds * scale(op.at))
    weighted, mean, covered = [], 0.0, 0.0
    for key, times in classes.items():
        weight = share[key]
        mean += weight * statistics.fmean(times)
        covered += weight
        weighted.extend((t, weight / len(times)) for t in times)
    mean /= covered
    tail = weighted_quantile(weighted, tail_percentile / 100)
    metrics = {
        "setup_s": statistics.median(seconds * scale(at) for seconds, at in setups),
        "wall_s": len(first) * mean,
        "ops_per_s": 1 / mean,
        "op_p50_ms": weighted_quantile(weighted, 0.5) * 1000,
        "op_tail_ms": tail * 1000,
        "ok_share": (len(ops) - failed) / len(ops),
        "peak_rss_mb": rss,
    }
    timing = {
        "ops": len(ops),
        "setups": len(setups),
        "probe_us": {
            "min": min(probes) * 1e6,
            "median": statistics.median(probes) * 1e6,
            "max": max(probes) * 1e6,
        },
        "raw_op_p50_ms": statistics.median(op.seconds for op in ops) * 1000,
        "raw_setup_s": statistics.median(seconds for seconds, _ in setups),
        "tail_percentile": tail_percentile,
        "tail_samples_beyond": sum(1 for t, _ in weighted if t > tail),
    }
    return metrics, timing


# ---------------------------------------------------------------------------
# reporting


def git_commit():
    git = ROOT / ".git"
    if not git.is_dir():
        return "unknown: not a git checkout"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = git / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown: {ref} not resolved"


def environment():
    cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "commit": git_commit(),
        "note": (
            f"{cpus} CPUs shared with other processes; single runs are noisy, "
            "compare medians of repeated runs"
        ),
    }


def shape_summary(ops):
    """Operations by shape class: count, median and maximum time, mean
    clan count and how many ran the deep specializations."""
    groups = {}
    for op in ops:
        groups.setdefault(shape_class(op.item), []).append(op)
    out = {}
    for key, members in sorted(groups.items()):
        times = [op.seconds * 1000 for op in members]
        out[key] = {
            "ops": len(members),
            "p50_ms": statistics.median(times),
            "max_ms": max(times),
            "mean_clans": statistics.fmean(op.item.shape.get("clans", 0) for op in members),
            "deep": sum(1 for op in members if op.item.shape.get("deep")),
        }
    return out


def slowest(ops, tracer=None, count=5):
    out = []
    for op in sorted(ops, key=lambda o: -o.seconds)[:count]:
        entry = {"index": op.item.index, "ms": op.seconds * 1000, "shape": op.item.shape}
        if tracer is not None:
            entry["self_ms"] = tracer.op_breakdown(op.item.index)
        out.append(entry)
    return out


# ---------------------------------------------------------------------------


def run(workload_name, seed, seconds, trace, limit=None):
    """Set up, measure and verify one run.  Returns the report and the
    result object.  ``limit`` caps the number of timed operations."""
    workload = WORKLOADS[workload_name]
    check_preconditions()
    api = import_fresh()
    first = workload.batch(api, seed, 0)
    reference = load_reference(workload, seed)
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "process_to_first_op_s": time.perf_counter() - STARTED,
    }
    if trace:
        items = first if limit is None else first[:limit]
        tracer = spans.Tracer(PACKAGE)
        tracer.install()
        try:
            traced = [timed(api, workload, item, tracer) for item in items]
        finally:
            tracer.restore()
        clear_program_caches()
        fresh = workload.batch(api, seed, 0)[: len(items)]
        plain = [timed(api, workload, item) for item in fresh]
        ops = traced + plain
        verdicts = verify(workload, ops, reference)
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = sum(o.seconds for o in traced) / sum(o.seconds for o in plain)
        units = PER_LAYER_UNITS
        report["untraced_functions"] = tracer.missing
        report["slowest_traced"] = slowest(traced, tracer)
    else:
        ops, setups, probes, batches, rss = measure(api, workload, seed, first, seconds, limit)
        verdicts = verify(workload, ops, reference)
        metrics, report["timing"] = end_to_end(
            ops, setups, probes, first, rss, verdicts["failed"], workload.tail_percentile
        )
        units = END_TO_END_UNITS
        report["batches"] = {"size": len(first), "whole": len(batches), "op_seconds": batches}
        report["slowest"] = slowest(ops)
    report["shapes"] = shape_summary(ops)
    report["verdicts"] = verdicts
    result = {
        "correct": verdicts["failed"] == 0,
        "attempted": len(ops),
        "failed": verdicts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, args.trace)
    except Refused as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
