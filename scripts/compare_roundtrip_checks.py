"""Compare the checks of `algebra_roundtrip_iso` and `validate_cs` between
two source trees.

Runs the round trip on every kernel of at most 3 atoms and on 500 seeded
kernels of 4 to 6 atoms, once with each tree's ``contactlab`` on the
path, and compares the check tuples (name, passed, witness) instance by
instance.  Each kernel is run twice: against its canonical dual, where
every check passes, and against that dual with one pair of its relation
toggled, where the relation and proximity lines fail with a witness or
the triple is refused (the error's type and message are compared then).
The 2-contact checks of `validate_cs` are compared on the canonical pair
and the whole-space pair of each kernel's dual, and on every subset,
empty and not dense included, of every space of at most 4 points.
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


def small_spaces():
    """Every topology on at most 4 points, as its tuple of point
    closures: the reflexive and transitive ones."""
    from contactlab.boolean import bit_indices

    for n in range(5):
        for closures in itertools.product(range(1 << n), repeat=n):
            if all(
                c >> x & 1 and all(closures[y] | c == c for y in bit_indices(c))
                for x, c in enumerate(closures)
            ):
                yield closures


def check_tuples(call):
    """The check tuples of the structure or report ``call()`` returns,
    or the error that refused it."""
    from contactlab.errors import ContactLabError

    try:
        return [list(check) for check in call().checks]
    except ContactLabError as error:
        return [type(error).__name__, str(error)]


def checks(pca):
    """The round trip's check tuples, or the error that refused it."""
    from contactlab import duality

    return check_tuples(lambda: duality.algebra_roundtrip_iso(pca).report)


def cs_checks(space, subset):
    """The check tuples of `validate_cs` on the pair, or the error that
    refused it."""
    from contactlab.structures import validate_cs

    return check_tuples(lambda: validate_cs(space, subset))


def dump():
    """One JSON line per instance: its kernel, its check tuples, those
    with one pair of the dual's relation toggled, and the 2-contact
    checks of its dual's canonical and whole-space pairs; then one line
    per pair of a small space: its closures, its subset and its 2-contact
    checks."""
    from contactlab import duality
    from contactlab.precontact import pca_from_pairs
    from contactlab.structures import canonical_pcs_of_pca, validate_pcs
    from contactlab.topology import FiniteSpace

    for index, (n, pairs) in enumerate(instances()):
        pca = pca_from_pairs(n, pairs)
        line = [n, pairs, checks(pca)]
        triple = canonical_pcs_of_pca(pca)
        space = triple.space
        cs_lines = [cs_checks(space, triple.subset), cs_checks(space, space.full_mask)]
        toggled = validate_pcs(
            triple.space, triple.subset, triple.relation ^ {(index % n, index // n % n)}
        )
        duality.canonical_pcs_of_pca = lambda _: toggled
        try:
            line.append(checks(pca))
        finally:
            duality.canonical_pcs_of_pca = canonical_pcs_of_pca
        print(json.dumps(line + cs_lines))
    for closures in small_spaces():
        space = FiniteSpace(tuple(f"p{i}" for i in range(len(closures))), closures)
        for subset in range(space.full_mask + 1):
            print(json.dumps([list(closures), subset, cs_checks(space, subset)]))


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
    lines = [json.loads(line) for line in baseline]
    kernels = [line for line in lines if len(line) == 6]
    toggled = [line[3] for line in kernels]
    failing = sum(any(check[1] is False for check in t) for t in toggled if isinstance(t[0], list))
    refused = sum(isinstance(t[0], str) for t in toggled)
    pairs = [cs for line in kernels for cs in line[4:]]
    pairs += [line[2] for line in lines if len(line) == 3]
    failed = sum(any(check[1] is False for check in cs) for cs in pairs)
    print(
        f"{len(kernels)} instances and {len(lines) - len(kernels)} small-space pairs, "
        f"check tuples equal; with a relation pair toggled, {failing} round trips fail "
        f"a check and {refused} are refused; {failed} of {len(pairs)} 2-contact pairs "
        "fail a check"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
