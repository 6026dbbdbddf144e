"""Seeded fuzzing of the command-line boundary.

Valid instance files of every ``kind`` are mutated (keys dropped, values
retyped, indices pushed out of range, values nested deeper, integers
made huge) and run in-process through ``cli.main`` for ``validate``,
``dualize``, ``enumerate`` and ``export-dot``.  Every run must end with
exit code 0, 1 or 2 and no traceback.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab.cli import main
from contactlab.duality import dual_space_map, identity_pcs_morphism
from contactlab.precontact import pca_from_pairs
from contactlab.randgen import random_pca_morphism
from contactlab.serialize import encode
from contactlab.structures import canonical_pcs_of_pca

from test_cli import INVALID_END_MORPHISM

XL = {"points": ["c0", "c1", "c0-1"], "closed_base": [[0, 2], [1, 2], [2]]}


def _base_payloads():
    path = pca_from_pairs(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)})
    triple = canonical_pcs_of_pca(path)
    phi = random_pca_morphism(2, 3, 0.5, 11)
    versioned = [
        {"kind": "algebra", "atoms": 3},
        {"kind": "pca", "algebra": {"atoms": 2}, "relation": [[1, 1], [3, 3], [1, 3], [3, 1]]},
        {"kind": "space", **XL},
        {"kind": "pair", "space": XL, "subset": [0, 1]},
        {"kind": "cs", "space": XL, "subset": [0, 1]},
        {"kind": "mereo", "space": XL, "members": [[], [0, 2], [1, 2], [0, 1, 2]]},
        {"kind": "adjacency", "cells": ["a", "b"], "R": [[0, 0], [0, 1]]},
        {
            "kind": "adjacency",
            "cells": ["a", "b"],
            "R": [[0, 0], [1, 1]],
            "topology": {"points": ["a", "b"], "closed_base": [[0], [1]]},
        },
        # a topology that is not Stone: `validate` exits 1 with a witness
        {
            "kind": "adjacency",
            "cells": ["a", "b"],
            "R": [[0, 1]],
            "topology": {"points": ["a", "b"], "closed_base": [[0], [0, 1]]},
        },
        {"kind": "family", "family_kind": "grill", "algebra": {"atoms": 2}, "members": [1, 3]},
        INVALID_END_MORPHISM,
    ]
    return [
        *({"schema_version": "1", **p} for p in versioned),
        encode(path),
        encode(triple),
        encode(phi),
        encode(identity_pcs_morphism(triple)),
        encode(dual_space_map(phi)),
    ]


BASES = _base_payloads()
COMMANDS = [
    ["validate"],
    ["validate", "--text"],
    ["dualize"],
    ["dualize", "--roundtrip"],
    ["dualize", "--roundtrip", "--text"],
    *(["enumerate", what] for what in ("ultrafilters", "grills", "clans", "rc", "u-points")),
    ["export-dot"],
]
# replacements of another type or range
ODD_SCALARS = [None, True, False, 0, -1, 3, 7, 2**70, -(2**70), 1.5, "", "x"]
ODD_VALUES = ODD_SCALARS + [[], {}, [[]], [0], [[0, 9]]]


def _slots(node, out):
    """Every (container, key) in the tree, parents before children."""
    if isinstance(node, dict):
        for key in sorted(node):
            out.append((node, key))
            _slots(node[key], out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            out.append((node, i))
            _slots(item, out)
    return out


@st.composite
def mutated_files(draw):
    payload = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(("drop", "retype", "huge", "outside", "nest", "repeat")))
        # The version and kind tags are left alone in most files, so that
        # most mutations reach the decoders and the commands; the index
        # mutations go to integers.
        slots = [
            (c, k)
            for c, k in _slots(payload, [])
            if not (c is payload and k in ("schema_version", "kind"))
            and (op not in ("huge", "outside") or type(c[k]) is int)
        ]
        if draw(st.integers(0, 9)) == 0 or not slots:
            slots = _slots(payload, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        value = container[key]
        if op == "drop":
            del container[key]
        elif op == "retype":
            container[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif op == "huge":
            container[key] = draw(st.sampled_from((2**64, 10**30, -(10**30), 2**31 - 1)))
        elif op == "outside":
            container[key] = value + draw(st.integers(1, 40)) if isinstance(value, int) else 12
        elif op == "nest":
            container[key] = [value] if draw(st.booleans()) else {"kind": value}
        else:
            container[key] = [value, value] if not isinstance(value, list) else value + value
    return payload


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(payload=mutated_files(), command=st.sampled_from(COMMANDS))
def test_mutated_files_exit_cleanly(tmp_path_factory, payload, command):
    path = tmp_path_factory.mktemp("fuzz") / "instance.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2), (code, payload, command)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
    if code == 1:
        assert err.getvalue() or out.getvalue()
