"""Per-layer tracing of contactlab from outside the program.

``Tracer.install`` replaces each traced function by a wrapper, by
rebinding its name in every ``contactlab`` module that holds it (the
package namespace included), and ``Tracer.restore`` puts the originals
back.  The program's files are not changed.

A spanned function records its calls, its self time (span minus the time
covered by the spans of traced functions it calls) and the exceptions
that leave it.  Spans are folded into per-function and per-operation
totals as they close instead of being stored one by one: the
roundtrip-population batch opens about four million spans.  A counted
function records calls only; ``bit_indices`` is called tens of millions
of times, and a span around it would cost more than it measures.
"""

from __future__ import annotations

import functools
import sys
import time

SPANNED = (
    "precontact.normalize_relation",
    "precontact.contact_from_well_inside",
    "precontact.well_inside_axiom_report",
    "precontact.axiom_report",
    "precontact.clan_supports",
    "precontact.contact_closure",
    "topology.closure",
    "topology.interior",
    "topology.space_from_closed_base",
    "topology.rc_members_of_subset",
    "topology.clopens_of_subset",
    "structures.canonical_pcs_of_pca",
    "structures.validate_pcs",
    "structures.pcs_contact_masks",
    "structures.pcs_algebra",
    "structures.validate_cs",
    "structures.mereocompactness_report",
    "duality.algebra_roundtrip_iso",
    "duality.specialization_report",
    "duality.check_naturality",
    "duality.dual_space_map",
    "duality.dual_algebra_map",
    "duality.space_roundtrip_iso",
    "duality.gt_preimage_check",
    "adjacency.stone_representation_report",
    "serialize.encode",
    "serialize.decode",
    "suite.instance_suite",
)
COUNTED = ("boolean.bit_indices",)
LAYERS = ("precontact", "topology", "structures", "duality", "adjacency", "serialize", "suite")


def _pca_key(pca):
    return pca.algebra.atom_count, pca.kernel.pairs


def _pcs_key(pcs):
    space = pcs.space
    return space.point_names, space.point_closures, pcs.subset, pcs.relation


# Functions whose repeated work is measured: distinct argument values
# divided by calls.
DISTINCT = {
    "precontact.clan_supports": _pca_key,
    "structures.canonical_pcs_of_pca": _pca_key,
    "structures.pcs_algebra": _pcs_key,
}


def metric_units():
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in SPANNED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    for name in DISTINCT:
        units[f"{name}.unique_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    return units


class Tracer:
    def __init__(self, package):
        self._package = package
        self.active = False
        self.calls = dict.fromkeys(SPANNED + COUNTED, 0)
        self.self_ns = dict.fromkeys(SPANNED, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.keys = {name: set() for name in DISTINCT}
        self.per_op = {}
        self.missing = []
        self._stack = []
        self._op_self = {}
        self._last_error = None
        self._rebound = []

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id):
        """Spans opened until ``end_op`` belong to operation ``op_id``."""
        self._op_self = self.per_op.setdefault(op_id, {})
        self.active = True

    def end_op(self):
        self.active = False
        self._stack.clear()
        self._last_error = None

    # -- installation -----------------------------------------------------

    def install(self):
        prefix = self._package + "."
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self._package or name.startswith(prefix))
        ]
        for name in SPANNED + COUNTED:
            layer, attr = name.split(".")
            original = getattr(sys.modules.get(prefix + layer), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._counted(name, original) if name in COUNTED else self._spanned(name, original)
            for module in modules:
                for attr_name, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, attr_name, original))
                        setattr(module, attr_name, wrapper)

    def restore(self):
        for module, attr_name, original in reversed(self._rebound):
            setattr(module, attr_name, original)
        self._rebound.clear()

    def _counted(self, name, fn):
        tracer, calls = self, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        tracer, calls, self_ns, stack = self, self.calls, self.self_ns, self._stack
        layer = name.split(".")[0]
        key_of, keys = DISTINCT.get(name), self.keys.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if key_of is not None:
                keys.add(key_of(args[0] if args else next(iter(kwargs.values()))))
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # Count an exception once, in the innermost traced
                # function it leaves.
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                calls[name] += 1
                self_ns[name] += own
                op = tracer._op_self
                op[name] = op.get(name, 0) + own

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self):
        out = {}
        for name in SPANNED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        for name in COUNTED:
            out[f"{name}.calls"] = self.calls[name]
        for name in DISTINCT:
            calls = self.calls[name]
            out[f"{name}.unique_ratio"] = len(self.keys[name]) / calls if calls else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def op_breakdown(self, op_id, top=5):
        """The functions with the most self time in one operation, in ms."""
        spent = sorted(self.per_op.get(op_id, {}).items(), key=lambda kv: -kv[1])
        return {name: ns / 1e6 for name, ns in spent[:top]}
