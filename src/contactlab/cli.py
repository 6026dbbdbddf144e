"""Command-line front end.

Commands: validate, dualize, enumerate, suite, export-dot, random.
Exit codes: 0 pass, 1 semantic failure, 2 usage/parse/capacity.  Output
is JSON by default (sorted keys, so identical inputs give identical
bytes); ``--text`` switches to human-readable lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .boolean import FiniteBooleanAlgebra, bit_indices, grills, ultrafilters
from .config import atom_limit, enum_limit, point_limit
from .duality import algebra_roundtrip_iso, pcs_iso_report, space_roundtrip_iso
from .errors import (
    CapacityError,
    ContactLabError,
    DomainMismatchError,
    InternalError,
    SchemaError,
)
from .precontact import PrecontactAlgebra, clan_supports
from .randgen import CONSTRAINTS, RandomSpec, child_seed, random_pca
from .serialize import dot_export, dumps, encode, loads
from .structures import (
    TwoContactSpace,
    TwoPrecontactSpace,
    canonical_pca_of_pcs,
    canonical_pcs_of_pca,
    mereocompactness_report,
)
from .suite import instance_suite
from .topology import (
    FiniteSpace,
    MereotopologicalPair,
    TopologicalPair,
    held_once,
    rc_atoms,
    rc_members,
    rc_members_of_subset,
    space_predicates,
)

PASS, FAIL, USAGE = 0, 1, 2
DENSITY_CYCLE = (0.15, 0.3, 0.5, 0.7, 0.85)


def _emit(payload, text_lines, as_text):
    if as_text:
        for line in text_lines:
            print(line)
    else:
        sys.stdout.write(dumps(payload))


def _load_file(path):
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", path) from exc
    return loads(raw)


def _write_file(path, body):
    try:
        Path(path).write_text(body)
    except OSError as exc:
        raise SchemaError(f"cannot write file: {exc}", path) from exc


def _checks_lines(checks):
    out = []
    for c in checks:
        mark = "pass" if c.passed else "FAIL"
        line = f"{c.name}: {mark}"
        if not c.passed and c.witness:
            line += f"  witness {c.witness}"
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args):
    obj = _load_file(args.file)
    if isinstance(obj, FiniteSpace):
        predicates = space_predicates(obj)
        payload = {"kind": "space", "valid": True, "predicates": predicates}
        lines = ["space: pass"] + [f"{k}: {v}" for k, v in predicates.items()]
        _emit(payload, lines, args.text)
        return PASS
    if isinstance(obj, (TwoPrecontactSpace, TwoContactSpace)):
        payload = {"kind": "pcs" if isinstance(obj, TwoPrecontactSpace) else "cs"}
        payload["checks"] = [c.as_dict() for c in obj.checks]
        payload["valid"] = obj.ok
        _emit(payload, _checks_lines(obj.checks), args.text)
        return PASS if obj.ok else FAIL
    if isinstance(obj, PrecontactAlgebra):
        flags = obj.axioms.as_dict()
        payload = {"kind": "pca", "valid": True, "axioms": flags}
        lines = [f"{k}: {v}" for k, v in flags.items()]
        _emit(payload, lines + ["precontact: pass"], args.text)
        return PASS
    if isinstance(obj, MereotopologicalPair):
        result = mereocompactness_report(obj)
        payload = {
            "kind": "mereo",
            "valid": result.is_space,
            "is_mereocompact": result.is_mereocompact,
            "checks": [c.as_dict() for c in result.checks],
        }
        _emit(payload, _checks_lines(result.checks), args.text)
        return PASS if result.is_space else FAIL
    kind = type(obj).__name__
    payload = {"kind": kind, "valid": True}
    _emit(payload, [f"{kind}: pass"], args.text)
    return PASS


def cmd_dualize(args):
    obj = _load_file(args.file)
    if isinstance(obj, PrecontactAlgebra):
        payload = encode(canonical_pcs_of_pca(obj))
        if args.roundtrip:
            report = algebra_roundtrip_iso(obj).report
    elif isinstance(obj, TwoPrecontactSpace):
        payload = encode(canonical_pca_of_pcs(obj))
        if args.roundtrip:
            report = pcs_iso_report(space_roundtrip_iso(obj))
    else:
        raise SchemaError("dualize needs a pca or pcs instance", args.file)
    body = dumps(payload)
    if args.out:
        _write_file(args.out, body)
    else:
        sys.stdout.write(body)
    if args.roundtrip:
        report_payload = {"roundtrip": [c.as_dict() for c in report.checks], "pass": report.ok}
        _emit(report_payload, _checks_lines(report.checks), args.text)
        return PASS if report.ok else FAIL
    return PASS


def _family_listing(families):
    return [
        {"kind": f.kind, "members": sorted(f.members)} for f in families
    ]


def cmd_enumerate(args):
    obj = _load_file(args.file)
    what = args.what
    if what in ("ultrafilters", "grills"):
        if isinstance(obj, PrecontactAlgebra):
            algebra = obj.algebra
        elif isinstance(obj, FiniteBooleanAlgebra):
            algebra = obj
        else:
            raise SchemaError(f"{what} needs an algebra or pca instance", args.file)
        families = ultrafilters(algebra) if what == "ultrafilters" else grills(algebra)
        items = _family_listing(families)
        lines = [json.dumps(i) for i in items]
    elif what == "clans":
        if not isinstance(obj, PrecontactAlgebra):
            raise SchemaError("clans needs a pca instance", args.file)
        items = [sorted(bit_indices(s)) for s in clan_supports(obj)]
        lines = [json.dumps(i) for i in items]
    elif what == "rc":
        if isinstance(obj, FiniteSpace):
            members = rc_members(obj)
            space = obj
        elif isinstance(obj, (TopologicalPair, TwoPrecontactSpace, TwoContactSpace)):
            members = rc_members_of_subset(obj.space, obj.subset)
            space = obj.space
        else:
            raise SchemaError("rc needs a space or pair instance", args.file)
        items = [sorted(bit_indices(m)) for m in members]
        lines = [space.name_set(m) for m in members]
    elif what == "u-points":
        # A u-point is a point held by exactly one atom: of RC(X) for a
        # space, of the member algebra for a pair (the `u_set` of
        # `mereocompactness_report`).
        # For a space, x is in cl U iff the up-set U holds a maximal point
        # above x.  If only one atom cl{m} of `rc_atoms` holds x, each such
        # U holds the up-set of m, and so does U n V.  If cl{m} and cl{m'}
        # are distinct atoms holding x, the up-sets of m and m' are
        # disjoint opens whose closures hold x.  The atoms are computed
        # once per listing.
        if isinstance(obj, (FiniteSpace, TopologicalPair, TwoPrecontactSpace, TwoContactSpace)):
            space = obj if isinstance(obj, FiniteSpace) else obj.space
            u_set = held_once(rc_atoms(space))
        elif isinstance(obj, MereotopologicalPair):
            space = obj.space
            u_set = held_once(obj.atoms)
        else:
            raise SchemaError("u-points needs a space-bearing instance", args.file)
        items = list(bit_indices(u_set))
        lines = [space.point_names[x] for x in items]
    else:
        raise SchemaError(f"cannot enumerate {what!r}", args.file)
    payload = {"what": what, "items": items, "count": len(items)}
    _emit(payload, lines + [f"count: {len(items)}"], args.text)
    return PASS


def cmd_suite(args):
    results = []
    for index in range(args.count):
        density = (
            args.density
            if args.density is not None
            else DENSITY_CYCLE[index % len(DENSITY_CYCLE)]
        )
        spec = RandomSpec(
            atoms=args.atoms,
            density=density,
            seed=child_seed(args.seed, index),
            constraint=args.constraint,
        )
        pca = random_pca(spec)
        report = instance_suite(pca)
        results.append(report.ok)
        if not report.ok and args.dump_dir is not None:
            dump = {
                "instance": encode(pca),
                "report": report.as_dict(),
                "case": index,
                "seed": args.seed,
            }
            path = Path(args.dump_dir) / f"failure_seed{args.seed}_case{index}.json"
            _write_file(path, dumps(dump))
    failures = results.count(False)
    payload = {
        "atoms": args.atoms,
        "count": args.count,
        "seed": args.seed,
        "constraint": args.constraint,
        "failures": failures,
        "pass": failures == 0,
    }
    lines = [
        f"case {i}: {'pass' if ok else 'FAIL'}" for i, ok in enumerate(results)
    ] + [f"failures: {failures}/{args.count}"]
    _emit(payload, lines, args.text)
    return PASS if failures == 0 else FAIL


def cmd_export_dot(args):
    obj = _load_file(args.file)
    sys.stdout.write(dot_export(obj))
    return PASS


def cmd_random(args):
    spec = RandomSpec(
        atoms=args.atoms,
        density=args.density,
        seed=args.seed,
        constraint=args.constraint,
    )
    pca = random_pca(spec)
    body = dumps(encode(pca))
    if args.out:
        _write_file(args.out, body)
    else:
        sys.stdout.write(body)
    return PASS


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(low):
    def parse(raw):
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {raw!r}")
        return value

    return parse


def _density(raw):
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {raw!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="contactlab",
        description="Finite-model laboratory for contact algebras and their dual spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("file")
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dualize", help="send an instance through the duality")
    p.add_argument("file")
    p.add_argument("--roundtrip", action="store_true")
    p.add_argument("--out")
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("enumerate", help="list families of an instance")
    p.add_argument("file")
    p.add_argument(
        "what", choices=("ultrafilters", "grills", "clans", "rc", "u-points")
    )
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("suite", help="run the property suite on seeded instances")
    p.add_argument("--atoms", type=_int_at_least(1), required=True)
    p.add_argument("--count", type=_int_at_least(0), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=_density, default=None)
    p.add_argument("--constraint", choices=CONSTRAINTS, default="none")
    p.add_argument("--dump-dir", default=None)
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("export-dot", help="render an instance as DOT")
    p.add_argument("file")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("random", help="generate a seeded random instance")
    p.add_argument("--atoms", type=_int_at_least(0), required=True)
    p.add_argument("--density", type=_density, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--constraint", choices=CONSTRAINTS, default="none")
    p.add_argument("--out")
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        # Every budget is read before dispatch, so a malformed variable
        # exits 2 on every subcommand, whether or not the run reads it.
        atom_limit()
        enum_limit()
        point_limit()
        return args.func(args)
    except (SchemaError, CapacityError, DomainMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return FAIL
    except ContactLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
