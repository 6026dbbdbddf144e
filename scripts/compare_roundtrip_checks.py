"""Compare the checks of `algebra_roundtrip_iso` between two source trees.

Runs the round trip on every kernel of at most 3 atoms and on 500 seeded
kernels of 4 to 6 atoms, once with each tree's ``contactlab`` on the
path, and compares the check tuples (name, passed, witness) instance by
instance.  Each kernel is run twice: against its canonical dual, where
every check passes, and against that dual with one pair of its relation
toggled, where the relation and proximity lines fail with a witness or
the triple is refused (the error's type and message are compared then).
Exits 0 when everything is equal, 1 otherwise.

    python scripts/compare_roundtrip_checks.py BASELINE_SRC [CHANGE_SRC]

``CHANGE_SRC`` defaults to this checkout's ``src``.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDED = 500
DENSITIES = (0.15, 0.3, 0.5, 0.7, 0.85)


def instances():
    """(atom count, sorted kernel pairs) of each instance, in order."""
    from contactlab.randgen import RandomSpec, child_seed, random_pca

    for n in (1, 2, 3):
        square = [(p, q) for p in range(n) for q in range(n)]
        for keep in itertools.product((False, True), repeat=len(square)):
            yield n, sorted(pair for pair, kept in zip(square, keep) if kept)
    for i in range(SEEDED):
        spec = RandomSpec(atoms=4 + i % 3, density=DENSITIES[i % 5], seed=child_seed(20261021, i))
        yield spec.atoms, sorted(random_pca(spec).kernel.pairs)


def checks(pca):
    """The round trip's check tuples, or the error that refused it."""
    from contactlab import duality
    from contactlab.errors import ContactLabError

    try:
        return [list(check) for check in duality.algebra_roundtrip_iso(pca).report.checks]
    except ContactLabError as error:
        return [type(error).__name__, str(error)]


def dump():
    """One JSON line per instance: its kernel, its check tuples, and
    those with one pair of the dual's relation toggled."""
    from contactlab import duality
    from contactlab.precontact import pca_from_pairs
    from contactlab.structures import canonical_pcs_of_pca, validate_pcs

    for index, (n, pairs) in enumerate(instances()):
        pca = pca_from_pairs(n, pairs)
        line = [n, pairs, checks(pca)]
        triple = canonical_pcs_of_pca(pca)
        toggled = validate_pcs(
            triple.space, triple.subset, triple.relation ^ {(index % n, index // n % n)}
        )
        duality.canonical_pcs_of_pca = lambda _: toggled
        try:
            line.append(checks(pca))
        finally:
            duality.canonical_pcs_of_pca = canonical_pcs_of_pca
        print(json.dumps(line))


def run(src):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run(
        [sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def main(argv):
    if argv[1:] == ["--dump"]:
        dump()
        return 0
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    change = argv[2] if len(argv) == 3 else Path(__file__).resolve().parent.parent / "src"
    baseline, changed = run(argv[1]), run(change)
    if len(baseline) != len(changed):
        print(f"instance counts differ: {len(baseline)} and {len(changed)}")
        return 1
    for line, other in zip(baseline, changed):
        if line != other:
            print(f"checks differ:\n  {line}\n  {other}")
            return 1
    toggled = [json.loads(line)[3] for line in baseline]
    failing = sum(any(check[1] is False for check in t) for t in toggled if isinstance(t[0], list))
    refused = sum(isinstance(t[0], str) for t in toggled)
    print(
        f"{len(baseline)} instances, check tuples equal; with a relation pair toggled, "
        f"{failing} round trips fail a check and {refused} are refused"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
