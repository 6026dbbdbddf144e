"""JSON instance files and DOT export.

Every instance file is a JSON object with ``schema_version`` "1" and a
``kind`` tag.  Algebra elements are integer bitmasks (bit i is atom i);
point sets are index lists.  Encoding is deterministic: keys sorted,
lists in canonical order, so identical values serialize to identical
bytes.
"""

from __future__ import annotations

import json

from .adjacency import AdjacencySpace
from .boolean import (
    BooleanHom,
    ElementFamily,
    FiniteBooleanAlgebra,
    bit_indices,
    mask_of,
    require_mask,
)
from .duality import PcsMorphism
from .errors import SchemaError
from .precontact import (
    PcaMorphism,
    PrecontactAlgebra,
    RelationKernel,
    normalize_relation,
)
from .report import DualityReport
from .structures import TwoContactSpace, TwoPrecontactSpace, validate_cs, validate_pcs
from .topology import (
    FiniteSpace,
    MereotopologicalPair,
    TopologicalPair,
    space_from_closed_base,
)

SCHEMA_VERSION = "1"

KINDS = (
    "algebra",
    "pca",
    "space",
    "pair",
    "pcs",
    "cs",
    "mereo",
    "adjacency",
    "morphism",
    "family",
)


def _expect(condition, message, location):
    if not condition:
        raise SchemaError(message, location)


def _is_index(v):
    # type, not isinstance: a JSON boolean decodes to bool, a subclass of int
    return type(v) is int and v >= 0


def _int_list(value, message, location):
    _expect(isinstance(value, list), message, location)
    for v in value:
        _expect(_is_index(v), message, location)
    return value


def _pair_list(value, location):
    """The index pairs of a JSON list; the location of a malformed item,
    ``location[i]``, is formatted only when it is raised."""
    _expect(isinstance(value, list), "expected a list of index pairs", location)
    out = []
    for i, item in enumerate(value):
        if not (isinstance(item, list) and len(item) == 2):
            raise SchemaError("expected an index pair", f"{location}[{i}]")
        p, q = item
        if not (_is_index(p) and _is_index(q)):
            raise SchemaError("expected nonnegative integers", f"{location}[{i}]")
        out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# encoding


def encode(obj):
    if isinstance(obj, FiniteBooleanAlgebra):
        return {"schema_version": SCHEMA_VERSION, "kind": "algebra", "atoms": obj.atom_count}
    if isinstance(obj, PrecontactAlgebra):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "pca",
            "algebra": {"atoms": obj.algebra.atom_count},
            "kernel": sorted([p, q] for p, q in obj.kernel.pairs),
        }
    if isinstance(obj, FiniteSpace):
        return {"schema_version": SCHEMA_VERSION, "kind": "space", **_space_payload(obj)}
    if isinstance(obj, TopologicalPair):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "pair",
            "space": _space_payload(obj.space),
            "subset": sorted(bit_indices(obj.subset)),
        }
    if isinstance(obj, TwoPrecontactSpace):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "pcs",
            "space": _space_payload(obj.space),
            "subset": sorted(bit_indices(obj.subset)),
            "R": sorted([x, y] for x, y in obj.relation),
        }
    if isinstance(obj, TwoContactSpace):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "cs",
            "space": _space_payload(obj.space),
            "subset": sorted(bit_indices(obj.subset)),
        }
    if isinstance(obj, MereotopologicalPair):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "mereo",
            "space": _space_payload(obj.space),
            "members": [sorted(bit_indices(m)) for m in obj.members],
        }
    if isinstance(obj, AdjacencySpace):
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "adjacency",
            "cells": list(obj.cells),
            "R": sorted([x, y] for x, y in obj.pairs),
        }
        if obj.topology is not None:
            payload["topology"] = _space_payload(obj.topology)
        return payload
    if isinstance(obj, ElementFamily):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "family",
            "family_kind": obj.kind,
            "algebra": {"atoms": obj.algebra.atom_count},
            "members": sorted(obj.members),
        }
    if isinstance(obj, (PcaMorphism, PcsMorphism)):
        pca = isinstance(obj, PcaMorphism)
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "morphism",
            "variant": "pca" if pca else "pcs",
            "source": encode(obj.source),
            "target": encode(obj.target),
            "map": list(obj.hom.atom_map if pca else obj.point_map),
        }
    if isinstance(obj, DualityReport):
        return obj.as_dict()
    raise SchemaError(f"cannot encode {type(obj).__name__}")


def _space_payload(space):
    return {
        "points": list(space.point_names),
        "closed_base": [sorted(bit_indices(cl)) for cl in space.point_closures],
    }


def dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# decoding


def decode(payload):
    _expect(isinstance(payload, dict), "expected a JSON object", "$")
    _expect(
        payload.get("schema_version") == SCHEMA_VERSION,
        f"schema_version must be {SCHEMA_VERSION!r}",
        "$.schema_version",
    )
    kind = payload.get("kind")
    _expect(kind in KINDS, f"unknown kind {kind!r}", "$.kind")
    if kind == "algebra":
        return _decode_algebra(payload, "$")
    if kind == "pca":
        return _decode_pca(payload, "$")
    if kind == "space":
        return _decode_space(payload, "$")
    if kind == "pair":
        space = _decode_space(payload.get("space"), "$.space")
        subset = _subset_mask(space, payload.get("subset"), "$.subset")
        return TopologicalPair(space, subset)
    if kind == "pcs":
        space = _decode_space(payload.get("space"), "$.space")
        subset = _subset_mask(space, payload.get("subset"), "$.subset")
        relation = _pair_list(payload.get("R"), "$.R")
        return validate_pcs(space, subset, frozenset(relation))
    if kind == "cs":
        space = _decode_space(payload.get("space"), "$.space")
        subset = _subset_mask(space, payload.get("subset"), "$.subset")
        return validate_cs(space, subset)
    if kind == "mereo":
        space = _decode_space(payload.get("space"), "$.space")
        members = payload.get("members")
        _expect(isinstance(members, list), "expected member list", "$.members")
        masks = tuple(
            _subset_mask(space, m, f"$.members[{i}]") for i, m in enumerate(members)
        )
        return MereotopologicalPair.from_members(space, masks)
    if kind == "adjacency":
        cells = payload.get("cells")
        _expect(
            isinstance(cells, list) and all(isinstance(c, str) for c in cells),
            "expected cell name list",
            "$.cells",
        )
        pairs = frozenset(_pair_list(payload.get("R"), "$.R"))
        topology = None
        if "topology" in payload:
            topology = _decode_space(payload["topology"], "$.topology")
        return AdjacencySpace(tuple(cells), pairs, topology)
    if kind == "family":
        algebra = _decode_algebra(payload.get("algebra"), "$.algebra")
        members = _int_list(payload.get("members"), "expected mask list", "$.members")
        family_kind = payload.get("family_kind", "arbitrary")
        return ElementFamily(
            algebra, frozenset(require_mask(algebra, m) for m in members), family_kind
        )
    if kind == "morphism":
        return _decode_morphism(payload)
    raise SchemaError(f"unhandled kind {kind!r}", "$.kind")


def _decode_algebra(payload, location):
    _expect(isinstance(payload, dict), "expected an object", location)
    atoms = payload.get("atoms")
    _expect(
        _is_index(atoms),
        "atoms must be a nonnegative integer",
        f"{location}.atoms",
    )
    return FiniteBooleanAlgebra(atoms)


def _decode_pca(payload, location):
    algebra_payload = payload.get("algebra")
    _expect(isinstance(algebra_payload, dict), "expected an algebra object", f"{location}.algebra")
    algebra = _decode_algebra(algebra_payload, f"{location}.algebra")
    kernel = payload.get("kernel")
    if kernel is None:
        # raw element-level relation: validated and reduced to its kernel
        relation = payload.get("relation")
        _expect(
            relation is not None,
            "pca requires a kernel or a raw relation",
            f"{location}.kernel",
        )
        pairs = _pair_list(relation, f"{location}.relation")
        return PrecontactAlgebra(algebra, normalize_relation(algebra, pairs))
    pairs = _pair_list(kernel, f"{location}.kernel")
    return PrecontactAlgebra(algebra, RelationKernel.of_pairs(algebra, pairs))


def _decode_space(payload, location):
    _expect(isinstance(payload, dict), "expected a space object", location)
    points = payload.get("points")
    _expect(
        isinstance(points, list)
        and points
        and all(isinstance(p, str) for p in points),
        "expected a nonempty point name list",
        f"{location}.points",
    )
    base = payload.get("closed_base")
    _expect(isinstance(base, list), "expected a closed base", f"{location}.closed_base")
    masks = []
    for i, member in enumerate(base):
        indices = _int_list(member, "expected index list", f"{location}.closed_base[{i}]")
        _expect(
            all(v < len(points) for v in indices),
            "point index out of range",
            f"{location}.closed_base[{i}]",
        )
        masks.append(mask_of(indices))
    return space_from_closed_base(points, masks)


def _subset_mask(space, value, location):
    indices = _int_list(value, "expected index list", location)
    _expect(
        all(v < space.point_count for v in indices),
        "point index out of range",
        location,
    )
    return mask_of(indices)


def _decode_morphism(payload):
    variant = payload.get("variant")
    _expect(variant in ("pca", "pcs"), f"unknown morphism variant {variant!r}", "$.variant")
    mapping = _int_list(payload.get("map"), "expected index list", "$.map")
    if variant == "pca":
        source = decode(payload.get("source"))
        target = decode(payload.get("target"))
        _expect(
            isinstance(source, PrecontactAlgebra) and isinstance(target, PrecontactAlgebra),
            "pca morphism endpoints must be pca instances",
            "$.source",
        )
        hom = BooleanHom(source.algebra, target.algebra, tuple(mapping))
        return PcaMorphism(hom, source, target)
    source = decode(payload.get("source"))
    target = decode(payload.get("target"))
    _expect(
        isinstance(source, TwoPrecontactSpace) and isinstance(target, TwoPrecontactSpace),
        "pcs morphism endpoints must be pcs instances",
        "$.source",
    )
    return PcsMorphism(source, target, tuple(mapping))


def loads(text):
    """Parse and decode an instance file.  Input nested past the
    interpreter's recursion limit, in the JSON text or in the morphism
    endpoints, is a schema error, not a crash."""
    try:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", "$") from exc
        return decode(payload)
    except RecursionError as exc:
        raise SchemaError("input is nested too deeply", "$") from exc


# ---------------------------------------------------------------------------
# DOT export


def _dot_space_lines(space, subset=None, relation=None):
    lines = []
    subset = subset or 0
    for i, name in enumerate(space.point_names):
        shape = "doublecircle" if subset >> i & 1 else "circle"
        lines.append(f'  "{name}" [shape={shape}];')
    for x in range(space.point_count):
        for y in range(space.point_count):
            if x != y and space.point_closures[y] >> x & 1:
                # specialization: x lies in the closure of y
                lines.append(
                    f'  "{space.point_names[x]}" -> "{space.point_names[y]}" [style=solid];'
                )
    for x, y in sorted(relation or ()):
        lines.append(
            f'  "{space.point_names[x]}" -> "{space.point_names[y]}" [style=dashed];'
        )
    return lines


def dot_export(obj):
    """Deterministic DOT text: specialization edges solid, relation edges
    dashed, dense-part nodes double-circled."""
    if isinstance(obj, FiniteSpace):
        body = _dot_space_lines(obj)
    elif isinstance(obj, (TopologicalPair, TwoContactSpace)):
        body = _dot_space_lines(obj.space, obj.subset)
    elif isinstance(obj, TwoPrecontactSpace):
        body = _dot_space_lines(obj.space, obj.subset, obj.relation)
    elif isinstance(obj, AdjacencySpace):
        body = [f'  "{name}" [shape=circle];' for name in obj.cells]
        body.extend(
            f'  "{obj.cells[x]}" -> "{obj.cells[y]}" [style=dashed];'
            for x, y in sorted(obj.pairs)
        )
    else:
        raise SchemaError(f"cannot export {type(obj).__name__} as DOT")
    return "digraph instance {\n" + "\n".join(body) + "\n}\n"
