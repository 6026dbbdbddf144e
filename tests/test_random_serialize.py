import json
import types

import pytest

from contactlab.adjacency import AdjacencySpace
from contactlab.boolean import ElementFamily, FiniteBooleanAlgebra
from contactlab.duality import dual_space_map
from contactlab.errors import PreconditionError, SchemaError
from contactlab.precontact import largest_contact, pca_from_pairs
from contactlab import randgen
from contactlab.randgen import RandomSpec, child_seed, random_pca, random_pca_morphism
from contactlab.serialize import (
    decode,
    dot_export,
    dumps,
    encode,
    loads,
)
from contactlab.structures import canonical_pcs_of_pca, validate_cs, validate_pcs
from contactlab.topology import (
    MereotopologicalPair,
    TopologicalPair,
    discrete_space,
    rc_members,
)

from conftest import enumerate_pcs_morphisms


# ---------------------------------------------------------------------------
# seeded generation


def test_random_pca_deterministic():
    spec = RandomSpec(atoms=4, density=0.4, seed=123)
    assert random_pca(spec) == random_pca(spec)
    other = RandomSpec(atoms=4, density=0.4, seed=124)
    assert random_pca(spec) != random_pca(other)


def test_random_density_extremes():
    empty = random_pca(RandomSpec(atoms=3, density=0.0, seed=5))
    assert empty.kernel.pairs == frozenset()
    full = random_pca(RandomSpec(atoms=3, density=1.0, seed=5))
    assert len(full.kernel.pairs) == 9


def test_random_contact_constraint():
    for seed in range(10):
        pca = random_pca(RandomSpec(atoms=4, density=0.3, seed=seed, constraint="contact"))
        assert pca.axioms.is_contact


def test_random_connected_constraint():
    for seed in range(5):
        pca = random_pca(
            RandomSpec(atoms=3, density=0.5, seed=seed, constraint="connected")
        )
        assert pca.axioms.ccon


def test_random_connected_unreachable_density():
    with pytest.raises(PreconditionError):
        random_pca(RandomSpec(atoms=3, density=0.0, seed=1, constraint="connected"))


def test_child_seed_spread():
    seeds = {child_seed(7, k) for k in range(100)}
    assert len(seeds) == 100


def test_random_morphism_is_valid():
    for seed in range(20):
        morphism = random_pca_morphism(3, 3, 0.4, seed)
        # constructor re-validates; also spot-check determinism
        again = random_pca_morphism(3, 3, 0.4, seed)
        assert morphism.hom.atom_map == again.hom.atom_map
        assert morphism.source == again.source


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 2, 0.5, 1), "no atom map sends 2 target atoms to no source atom"),
        ((2, 2, 1.7, 1), r"density must be in \[0, 1\]"),
        ((2, 2, -0.2, 1), r"density must be in \[0, 1\]"),
    ],
)
def test_random_morphism_refuses_its_input_before_drawing(monkeypatch, args, message):
    """No total atom map into an algebra with no atoms, and a density
    outside [0, 1], are refused with a typed error before any draw."""

    def no_draws(seed):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(randgen, "random", types.SimpleNamespace(Random=no_draws))
    with pytest.raises(PreconditionError, match=message):
        random_pca_morphism(*args)


# ---------------------------------------------------------------------------
# serialization round trips


def roundtrip(obj):
    return decode(json.loads(dumps(encode(obj))))


def test_roundtrip_algebra_and_pca():
    algebra = FiniteBooleanAlgebra(3)
    assert roundtrip(algebra) == algebra
    pca = pca_from_pairs(3, {(0, 1), (1, 2)})
    assert roundtrip(pca) == pca


def test_roundtrip_space_and_pair(xl_space):
    assert roundtrip(xl_space) == xl_space
    pair = TopologicalPair(xl_space, 0b011)
    assert roundtrip(pair) == pair


def test_roundtrip_pcs_preserves_validation(xl_space):
    triple = validate_pcs(
        xl_space, 0b011, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    )
    back = roundtrip(triple)
    assert back == triple
    assert back.ok


def test_roundtrip_cs_and_mereo(xl_space):
    cs = validate_cs(xl_space, 0b011)
    assert roundtrip(cs) == cs
    mereo = MereotopologicalPair.from_members(xl_space, rc_members(xl_space))
    assert roundtrip(mereo) == mereo


def test_roundtrip_adjacency(disc2):
    plain = AdjacencySpace(("a", "b"), frozenset({(0, 1)}))
    assert roundtrip(plain) == plain
    topologized = AdjacencySpace(("a", "b"), frozenset({(0, 1)}), disc2)
    assert roundtrip(topologized) == topologized


def test_roundtrip_family():
    algebra = FiniteBooleanAlgebra(2)
    family = ElementFamily(algebra, frozenset({1, 3}), "ultrafilter")
    assert roundtrip(family) == family


def test_roundtrip_morphisms():
    b4 = FiniteBooleanAlgebra(2)
    rho = largest_contact(b4)
    from contactlab.boolean import BooleanHom
    from contactlab.precontact import PcaMorphism

    phi = PcaMorphism(BooleanHom(b4, b4, (1, 0)), rho, rho)
    back = decode(json.loads(dumps(encode(phi))))
    assert back.hom.atom_map == (1, 0)
    assert back == phi

    triple = canonical_pcs_of_pca(rho)
    f = enumerate_pcs_morphisms(triple, triple)[0]
    back_f = decode(json.loads(dumps(encode(f))))
    assert back_f.point_map == f.point_map
    assert back_f == f

    for i in range(6):
        phi = random_pca_morphism(3, 3 + i % 2, 0.3 + 0.1 * i, child_seed(20261019, i))
        assert roundtrip(phi) == phi
        assert roundtrip(dual_space_map(phi)) == dual_space_map(phi)


def test_deterministic_bytes(xl_space):
    triple = validate_pcs(xl_space, 0b011, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    assert dumps(encode(triple)) == dumps(encode(roundtrip(triple)))


def test_schema_errors():
    with pytest.raises(SchemaError):
        loads("{not json")
    with pytest.raises(SchemaError):
        loads('{"schema_version": "1", "kind": "widget"}')
    with pytest.raises(SchemaError):
        loads('{"schema_version": "2", "kind": "algebra", "atoms": 1}')
    with pytest.raises(SchemaError):
        loads('{"schema_version": "1", "kind": "pca", "algebra": {"atoms": 2}}')
    # JSON booleans are not indices, although Python's bool is an int
    for text, location, message in (
        (
            '{"schema_version": "1", "kind": "algebra", "atoms": true}',
            "$.atoms",
            "atoms must be a nonnegative integer",
        ),
        (
            '{"schema_version": "1", "kind": "pca", "algebra": {"atoms": true},'
            ' "kernel": [[false, false]]}',
            "$.algebra.atoms",
            "atoms must be a nonnegative integer",
        ),
        (
            '{"schema_version": "1", "kind": "pca", "algebra": {"atoms": 1},'
            ' "kernel": [[false, false]]}',
            "$.kernel[0]",
            "expected nonnegative integers",
        ),
        (
            '{"schema_version": "1", "kind": "family", "algebra": {"atoms": 1},'
            ' "members": [true]}',
            "$.members",
            "expected mask list",
        ),
        (
            '{"schema_version": "1", "kind": "pair",'
            ' "space": {"points": ["a"], "closed_base": [[false]]}, "subset": [0]}',
            "$.space.closed_base[0]",
            "expected index list",
        ),
    ):
        with pytest.raises(SchemaError) as err:
            loads(text)
        assert str(err.value) == f"{location}: {message}"


PAIR_LIST_PAYLOADS = {
    "$.kernel": {"kind": "pca", "algebra": {"atoms": 2}},
    "$.relation": {"kind": "pca", "algebra": {"atoms": 2}},
    "$.R": {"kind": "pcs", "space": {"points": ["a"], "closed_base": [[0]]}, "subset": [0]},
}


@pytest.mark.parametrize("location", sorted(PAIR_LIST_PAYLOADS))
@pytest.mark.parametrize(
    "item, message",
    [
        ("0", "expected an index pair"),
        ({"p": 0, "q": 0}, "expected an index pair"),
        ([0, 0, 0], "expected an index pair"),
        ([0], "expected an index pair"),
        ([0, -1], "expected nonnegative integers"),
        ([-1, 0], "expected nonnegative integers"),
        ([0, "1"], "expected nonnegative integers"),
        ([0.0, 1], "expected nonnegative integers"),
        ([True, 0], "expected nonnegative integers"),
        ([0, False], "expected nonnegative integers"),
    ],
)
def test_malformed_pair_lists_name_the_item(location, item, message):
    """A malformed item of an index-pair list is named by its position
    after a well-formed one; a value that is no list is named itself."""
    field = location[2:]
    payload = {"schema_version": "1", **PAIR_LIST_PAYLOADS[location]}
    with pytest.raises(SchemaError) as err:
        decode({**payload, field: [[0, 0], item]})
    assert (err.value.location, str(err.value)) == (
        f"{location}[1]",
        f"{location}[1]: {message}",
    )
    with pytest.raises(SchemaError) as err:
        decode({**payload, field: {"0": [0, 0]}})
    assert str(err.value) == f"{location}: expected a list of index pairs"


def test_raw_relation_in_pca_files():
    payload = {
        "schema_version": "1",
        "kind": "pca",
        "algebra": {"atoms": 2},
        "relation": [[1, 1], [1, 3], [3, 1], [3, 3]],
    }
    pca = decode(payload)
    assert pca.kernel.pairs == {(0, 0)}


# ---------------------------------------------------------------------------
# DOT export


def test_dot_export_of_xl_triple():
    triple = canonical_pcs_of_pca(largest_contact(FiniteBooleanAlgebra(2)))
    dot = dot_export(triple)
    assert dot.count("doublecircle") == 2
    assert dot.count("style=solid") == 2
    assert dot.count("style=dashed") == 4
    assert '"c0-1" -> "c0" [style=solid];' in dot


def test_dot_export_of_discrete_pair():
    cs = validate_cs(discrete_space(("a", "b")), 0b11)
    dot = dot_export(cs)
    assert "style=solid" not in dot
    assert dot.count("doublecircle") == 2


def test_dot_export_of_adjacency():
    adjacency = AdjacencySpace(("a", "b"), frozenset({(0, 1)}))
    dot = dot_export(adjacency)
    assert dot.count("style=dashed") == 1
    assert "style=solid" not in dot
