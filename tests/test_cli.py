import json
import random

import pytest

from contactlab import topology
from contactlab.boolean import FiniteBooleanAlgebra
from contactlab.cli import main
from contactlab.precontact import largest_contact, pca_from_pairs
from contactlab.randgen import RandomSpec, child_seed, random_pca
from contactlab.serialize import dumps, encode
from contactlab.structures import canonical_pcs_of_pca, validate_pcs

from conftest import all_kernels
from oracles import expand_relation, oracle_normalize


@pytest.fixture
def files(tmp_path):
    rho_l = largest_contact(FiniteBooleanAlgebra(2))
    out = {}
    out["pca"] = tmp_path / "rl.json"
    out["pca"].write_text(dumps(encode(rho_l)))
    triple = canonical_pcs_of_pca(rho_l)
    out["pcs"] = tmp_path / "xl.json"
    out["pcs"].write_text(dumps(encode(triple)))
    bad = validate_pcs(triple.space, triple.subset, frozenset({(0, 0), (1, 1)}))
    out["bad"] = tmp_path / "bad.json"
    out["bad"].write_text(dumps(encode(bad)))
    out["malformed"] = tmp_path / "broken.json"
    out["malformed"].write_text("{nope")
    out["path"] = tmp_path / "path.json"
    out["path"].write_text(dumps(encode(pca_from_pairs(3, {(0, 1), (1, 2)}))))
    out["dir"] = tmp_path
    return out


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid_pcs(files, capsys):
    code, out, _ = run(capsys, "validate", files["pcs"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert len(payload["checks"]) == 5


def test_validate_failing_pcs_with_witness(files, capsys):
    code, out, _ = run(capsys, "validate", files["bad"])
    assert code == 1
    payload = json.loads(out)
    fourth = [c for c in payload["checks"] if c["name"] == "(PCS4)"][0]
    assert fourth["pass"] is False
    assert fourth["witness"] == "({c0},{c1})"


def test_validate_malformed_json(files, capsys):
    code, _, err = run(capsys, "validate", files["malformed"])
    assert code == 2
    assert "invalid JSON" in err


def _morphism_chain(depth):
    """A pca morphism whose source is a morphism, ``depth`` times over:
    shallow enough for the JSON parser, too deep for the decoder."""
    leaf = {"schema_version": "1", "kind": "algebra", "atoms": 1}
    payload = leaf
    for _ in range(depth):
        payload = {
            "schema_version": "1",
            "kind": "morphism",
            "variant": "pca",
            "map": [0],
            "source": payload,
            "target": leaf,
        }
    return json.dumps(payload)


@pytest.mark.parametrize(
    "text", ["[" * 200_000, _morphism_chain(900)], ids=["nested-lists", "nested-morphisms"]
)
def test_deeply_nested_input_exits_2(tmp_path, capsys, text):
    """Input nested past the recursion limit is a schema error, not a
    RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert err == "error: $: input is nested too deeply\n"


def test_validate_pca_reports_axioms(files, capsys):
    code, out, _ = run(capsys, "validate", files["pca"])
    assert code == 0
    payload = json.loads(out)
    assert payload["axioms"]["is_contact"] is True


def test_dualize_roundtrip(files, capsys, tmp_path):
    target = tmp_path / "dual.json"
    code, out, _ = run(
        capsys, "dualize", files["pca"], "--roundtrip", "--out", target
    )
    assert code == 0
    assert json.loads(out)["pass"] is True
    stored = json.loads(target.read_text())
    assert stored["kind"] == "pcs"
    assert stored["points" if "points" in stored else "space"]["points"] == [
        "c0", "c1", "c0-1",
    ]


def test_dualize_back_to_algebra(files, capsys):
    code, out, _ = run(capsys, "dualize", files["pcs"], "--roundtrip")
    assert code == 0
    blocks = out.strip().split("\n}\n")
    first = json.loads(blocks[0] + "\n}")
    assert first["kind"] == "pca"
    assert first["algebra"]["atoms"] == 2
    assert len(first["kernel"]) == 4


def test_dualize_twice_prints_the_input(tmp_path, capsys):
    """The algebra of the dual of an algebra is the algebra: its atoms are
    numbered by the dense part's clopen atoms, the ultrafilter clans in
    atom order, not by their closures ({c1,c0-1} < {c2,c0-2} < {c0,c0-1,c0-2}
    as masks here)."""
    source = tmp_path / "pca.json"
    source.write_text(dumps(encode(pca_from_pairs(3, [(0, 1), (0, 2)]))))
    dual = tmp_path / "dual.json"
    assert run(capsys, "dualize", source, "--out", dual) == (0, "", "")
    assert run(capsys, "dualize", dual) == (0, source.read_text(), "")


# The dense points a, b, c have the closures {a,p}, {b,p} and {c}: the
# atoms of the pair's algebra follow the dense points, though {c} is the
# least closure as a mask.
PCS_BOUNDARY_LAST = {
    "kind": "pcs",
    "space": {"points": ["a", "b", "c", "p"], "closed_base": [[0, 3], [1, 3], [2], [3]]},
    "subset": [0, 1, 2],
    "R": [[0, 1], [2, 2]],
}


def test_dualize_golden_numbers_atoms_by_the_dense_part(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"schema_version": "1", **PCS_BOUNDARY_LAST}))
    assert run(capsys, "dualize", path, "--roundtrip", "--text") == (
        0,
        """\
{
  "algebra": {
    "atoms": 3
  },
  "kernel": [
    [
      0,
      1
    ],
    [
      2,
      2
    ]
  ],
  "kind": "pca",
  "schema_version": "1"
}
bijective: pass
relation preserved and reflected: pass
""",
        "",
    )


def test_dualize_degenerate_algebra_fails(tmp_path, capsys):
    degenerate = tmp_path / "deg.json"
    degenerate.write_text(dumps(encode(pca_from_pairs(0, frozenset()))))
    code, _, err = run(capsys, "dualize", degenerate)
    assert code == 1
    assert "degenerate" in err


def test_dualize_invalid_pcs_to_algebra_exits_1(files, capsys):
    code, out, err = run(capsys, "dualize", files["bad"])
    assert (code, out) == (1, "")
    assert err == "error: not a 2-precontact space: (PCS4) ({c0},{c1})\n"


@pytest.mark.parametrize("command", ["validate", "dualize"])
def test_raw_relation_breaking_cplus_exits_1(tmp_path, capsys, command):
    path = tmp_path / "raw.json"
    path.write_text(
        json.dumps(
            {"schema_version": "1", "kind": "pca", "algebra": {"atoms": 2}, "relation": [[1, 2]]}
        )
    )
    code, out, err = run(capsys, command, path)
    assert (code, out) == (1, "")
    assert err == "error: axiom (C+) violated, witness (1, 1, 2)\n"


COMMANDS = (("validate",), ("validate", "--text"), ("dualize",))


def _relation_population():
    """Every kernel on at most 2 atoms, then seeded 3- to 5-atom ones."""
    out = [pca_from_pairs(n, pairs) for n in (0, 1, 2) for pairs in all_kernels(n)]
    for n in (3, 4, 5):
        for i, density in enumerate((0.2, 0.5, 0.8)):
            out.append(random_pca(RandomSpec(n, density, child_seed(40, 10 * n + i))))
    return out


def _relation_file(path, n, pairs):
    payload = {"schema_version": "1", "kind": "pca", "algebra": {"atoms": n}}
    payload["relation"] = [list(pair) for pair in pairs]
    path.write_text(json.dumps(payload))
    return path


def test_a_raw_relation_file_reads_as_its_kernel(tmp_path, capsys):
    """A pca file given by an element-level relation prints, under
    `validate`, `validate --text` and `dualize`, the bytes of the
    kernel-form file of the literal sweep's kernel, or exits 1 with the
    sweep's (C0) or (C+) witness: on the full relation of each kernel,
    and on two one-pair toggles of it (on one atom a toggle can give
    another relation)."""
    rng = random.Random(20261021)
    kernel_path, relation_path = tmp_path / "kernel.json", tmp_path / "relation.json"
    tags = set()
    for pca in _relation_population():
        n, size = pca.algebra.atom_count, pca.algebra.size
        relation = sorted(expand_relation(n, pca.kernel.pairs))
        assert oracle_normalize(n, frozenset(relation)) == ("ok", pca.kernel.pairs)
        toggled = [(0, rng.randrange(size)), (rng.randrange(size), rng.randrange(size))]
        for pair in [None] + toggled:
            rel = relation if pair is None else sorted(set(relation) ^ {pair})
            tag, found = oracle_normalize(n, frozenset(rel))
            tags.add(tag)
            _relation_file(relation_path, n, rel)
            if tag == "ok":
                kernel_path.write_text(dumps(encode(pca_from_pairs(n, found))))
            for command in COMMANDS:
                if tag == "ok":
                    expected = run(capsys, *command, kernel_path)
                else:
                    expected = (1, "", f"error: axiom {tag} violated, witness {found!r}\n")
                assert run(capsys, *command, relation_path) == expected, (command, rel)
    assert tags == {"ok", "(C0)", "(C+)"}


def test_suite_reports_an_invalid_dual(capsys, monkeypatch, tmp_path):
    """A canonical triple that fails (PCS1)..(PCS5) is a failing case of
    the suite, dumped to --dump-dir, not a crash."""
    monkeypatch.setattr(topology, "is_t0", lambda space: False)
    code, out, _ = run(
        capsys, "suite", "--atoms", "3", "--count", "2", "--dump-dir", tmp_path
    )
    assert code == 1
    assert json.loads(out)["failures"] == 2
    for case in (0, 1):
        dump = json.loads((tmp_path / f"failure_seed0_case{case}.json").read_text())
        assert "canonical triple validates" in dumps(dump["report"])


def test_enumerate_clans(files, capsys):
    code, out, _ = run(capsys, "enumerate", files["path"], "clans")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["items"] == [[0], [1], [2], [0, 1], [1, 2]]


def test_enumerate_grills(files, capsys):
    code, out, _ = run(capsys, "enumerate", files["pca"], "grills")
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_enumerate_ultrafilters(files, capsys):
    code, out, _ = run(capsys, "enumerate", files["pca"], "ultrafilters")
    assert json.loads(out)["count"] == 2


def test_enumerate_u_points(files, capsys):
    code, out, _ = run(capsys, "enumerate", files["pcs"], "u-points", "--text")
    assert code == 0
    assert out.splitlines() == ["c0", "c1", "count: 2"]


def test_enumerate_rc(files, capsys):
    code, out, _ = run(capsys, "enumerate", files["pcs"], "rc")
    assert json.loads(out)["count"] == 4


def test_enumerate_kind_mismatch(files, capsys):
    code, _, err = run(capsys, "enumerate", files["pcs"], "clans")
    assert code == 2


def test_suite_passes(files, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "suite", "--atoms", "3", "--count", "8", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0


def test_suite_empty_kernel_is_legal(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "suite", "--atoms", "3", "--count", "1", "--seed", "3",
        "--density", "0",
    )
    assert code == 0


def test_suite_cap_exceeded(capsys):
    code, _, err = run(capsys, "suite", "--atoms", "20", "--count", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (("suite", "--atoms", "2", "--count", "-3"), "--count"),
        (("suite", "--atoms", "2", "--density", "1.5"), "--density"),
        (("suite", "--atoms", "2", "--density", "nan"), "--density"),
        (("random", "--atoms", "2", "--density", "1.5"), "--density"),
        (("random", "--atoms", "2", "--density", "-0.1"), "--density"),
        (("suite", "--atoms", "0"), "--atoms"),
        (("suite", "--atoms", "-1"), "--atoms"),
        (("random", "--atoms", "-1"), "--atoms"),
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, monkeypatch, tmp_path, argv, option):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {option}: must be" in err


def test_suite_constraint_contact(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "suite", "--atoms", "3", "--count", "4", "--seed", "2",
        "--constraint", "contact",
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_suite_dumps_failing_instance(capsys, monkeypatch, tmp_path):
    # the laws hold on every real instance, so force a failing report to
    # exercise the dump path
    from contactlab import cli as cli_module
    from contactlab.report import Check, DualityReport

    def broken(pca):
        return DualityReport("forced", (Check("forced", False, "witness"),))

    monkeypatch.setattr(cli_module, "instance_suite", broken)
    code, out, _ = run(
        capsys,
        "suite", "--atoms", "2", "--count", "2", "--seed", "5",
        "--dump-dir", tmp_path,
    )
    assert code == 1
    assert json.loads(out)["failures"] == 2
    dumps_written = sorted(p.name for p in tmp_path.glob("failure_*.json"))
    assert dumps_written == [
        "failure_seed5_case0.json",
        "failure_seed5_case1.json",
    ]
    payload = json.loads((tmp_path / dumps_written[0]).read_text())
    assert payload["instance"]["kind"] == "pca"
    assert payload["report"]["checks"][0]["pass"] is False


def test_suite_without_dump_dir_writes_no_file(capsys, monkeypatch, tmp_path):
    """With no ``--dump-dir``, a failing suite still reports its failures
    and exits 1, but writes no dump into the working directory."""
    from contactlab import cli as cli_module
    from contactlab.report import Check, DualityReport

    def broken(pca):
        return DualityReport("forced", (Check("forced", False, "witness"),))

    monkeypatch.setattr(cli_module, "instance_suite", broken)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "suite", "--atoms", "2", "--count", "2", "--seed", "5")
    assert code == 1
    assert json.loads(out)["failures"] == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("random", "--atoms", "2", "--out"),
        ("dualize", "{pca}", "--out"),
        ("suite", "--atoms", "2", "--count", "1", "--dump-dir"),
    ],
)
def test_unwritable_output_paths_exit_2(files, capsys, monkeypatch, tmp_path, argv):
    # the suite writes only failure dumps, so force a failing report
    from contactlab import cli as cli_module
    from contactlab.report import Check, DualityReport

    def broken(pca):
        return DualityReport("forced", (Check("forced", False, "witness"),))

    monkeypatch.setattr(cli_module, "instance_suite", broken)
    missing = tmp_path / "missing"
    target = missing if argv[0] == "suite" else missing / "out.json"
    args = [str(a).format(pca=files["pca"]) for a in argv]
    code, _, err = run(capsys, *args, target)
    assert code == 2
    assert err.startswith("error: ") and "cannot write file" in err
    assert not missing.exists()


def test_export_dot(files, capsys):
    code, out, _ = run(capsys, "export-dot", files["pcs"])
    assert code == 0
    assert out.count("style=solid") == 2
    assert out.count("style=dashed") == 4


def test_export_dot_kind_mismatch(files, capsys):
    code, _, err = run(capsys, "export-dot", files["pca"])
    assert code == 2


def test_random_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            "random", "--atoms", "4", "--density", "0.5", "--seed", "11",
            "--out", target,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_outputs_are_byte_identical(files, capsys):
    _, first, _ = run(capsys, "validate", files["pcs"])
    _, second, _ = run(capsys, "validate", files["pcs"])
    assert first == second


def test_validate_space_reports_predicates(tmp_path, capsys):
    from contactlab.topology import space_from_closed_base

    space = space_from_closed_base(("g1", "g2", "g3"), [0b101, 0b110])
    target = tmp_path / "space.json"
    target.write_text(dumps(encode(space)))
    code, out, _ = run(capsys, "validate", target)
    assert code == 0
    payload = json.loads(out)
    assert payload["predicates"]["is_T0"] is True
    assert payload["predicates"]["is_stone"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "PCS", "--dot"],
        ["dualize", "PCA", "--direction", "auto"],
        ["suite", "--atoms", "2", "--count", "1", "--constraint", "complete"],
        ["random", "--atoms", "2", "--constraint", "complete"],
    ],
)
def test_removed_options_exit_2(files, capsys, argv):
    """`export-dot` prints the DOT rendering, the input's type decides
    the direction of `dualize`, and at finite scale the complete contact
    algebras are the contact algebras."""
    argv = [{"PCS": files["pcs"], "PCA": files["pca"]}.get(a, a) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (2, "")


def test_dualize_needs_an_algebra_or_a_triple(tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(dumps(encode(FiniteBooleanAlgebra(2))))
    code, out, err = run(capsys, "dualize", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: dualize needs a pca or pcs instance\n"


def test_validate_non_dense_pair_fails(tmp_path, capsys):
    payload = {
        "schema_version": "1",
        "kind": "pair",
        "space": {
            "points": ["g1", "g2", "g3"],
            "closed_base": [[0, 2], [1, 2], [2]],
        },
        "subset": [2],
    }
    target = tmp_path / "pair.json"
    target.write_text(json.dumps(payload))
    code, _, err = run(capsys, "validate", target)
    assert code == 1
    assert "dense" in err


def test_full_workflow_chain_is_deterministic(tmp_path, capsys):
    def chain(tag):
        base = tmp_path / tag
        base.mkdir()
        transcripts = []
        code, out, _ = run(
            capsys,
            "random", "--atoms", "3", "--density", "0.4", "--seed", "9",
            "--constraint", "contact", "--out", base / "a.json",
        )
        assert code == 0
        code, out, _ = run(capsys, "validate", base / "a.json")
        assert code == 0
        transcripts.append(out)
        code, out, _ = run(
            capsys,
            "dualize", base / "a.json", "--roundtrip", "--out", base / "dual.json",
        )
        assert code == 0
        transcripts.append(out)
        code, out, _ = run(capsys, "validate", base / "dual.json")
        assert code == 0
        transcripts.append(out)
        code, out, _ = run(capsys, "enumerate", base / "a.json", "clans")
        assert code == 0
        transcripts.append(out)
        code, out, _ = run(capsys, "export-dot", base / "dual.json")
        assert code == 0
        transcripts.append(out)
        transcripts.append((base / "dual.json").read_text())
        return transcripts

    assert chain("first") == chain("second")


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_internal_error_exits_1_with_its_own_message(files, capsys, monkeypatch):
    from contactlab import cli as cli_module
    from contactlab.errors import InternalError

    def broken(args):
        raise InternalError("kernel round trip failed")

    monkeypatch.setattr(cli_module, "cmd_validate", broken)
    code, out, err = run(capsys, "validate", files["pca"])
    assert code == 1
    assert out == ""
    assert err == "internal error: kernel round trip failed\n"


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "", " 7", "+5", "1_0", "\u0663"])
def test_malformed_budget_variable_exits_2(files, capsys, monkeypatch, raw):
    monkeypatch.setenv("CONTACTLAB_ENUM_LIMIT", raw)
    code, _, err = run(capsys, "validate", files["pca"])
    assert code == 2
    assert f"CONTACTLAB_ENUM_LIMIT={raw!r}" in err


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "{pca}"],
        ["dualize", "{pca}"],
        ["enumerate", "{pca}", "clans"],
        ["suite", "--atoms", "1", "--count", "1"],
        ["export-dot", "{pca}"],
        ["random", "--atoms", "3"],
    ],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize(
    "variable", ["CONTACTLAB_ATOM_LIMIT", "CONTACTLAB_ENUM_LIMIT", "CONTACTLAB_POINT_LIMIT"]
)
def test_malformed_budget_variable_exits_2_on_every_subcommand(
    files, capsys, monkeypatch, command, variable
):
    """Every budget is read before dispatch, so a malformed one exits 2
    naming the variable, whether or not the subcommand reads it."""
    monkeypatch.setenv(variable, "abc")
    code, out, err = run(capsys, *(arg.format(pca=files["pca"]) for arg in command))
    assert code == 2
    assert out == ""
    assert err == f"error: {variable}='abc' is not a positive integer\n"


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "", " 7", "+5", "1_0", "\u0663"])
@pytest.mark.parametrize(
    "variable, read",
    [
        ("CONTACTLAB_ATOM_LIMIT", "atom_limit"),
        ("CONTACTLAB_ENUM_LIMIT", "enum_limit"),
        ("CONTACTLAB_POINT_LIMIT", "point_limit"),
    ],
)
def test_malformed_budget_variable_is_rejected(monkeypatch, variable, read, raw):
    from contactlab import config
    from contactlab.errors import CapacityError

    monkeypatch.setenv(variable, raw)
    with pytest.raises(CapacityError, match=variable):
        getattr(config, read)()
    monkeypatch.setenv(variable, "7")
    assert getattr(config, read)() == 7


@pytest.mark.parametrize("index", [2, 10**30])
@pytest.mark.parametrize(
    "command", [["validate"], ["dualize"], ["enumerate", "rc"]], ids=lambda c: c[0]
)
def test_mereo_member_index_out_of_range_exits_2(tmp_path, capsys, command, index):
    payload = {
        "schema_version": "1",
        "kind": "mereo",
        "space": {"points": ["a", "b"], "closed_base": [[0], [1]]},
        "members": [[], [index], [1], [0, 1]],
    }
    path = tmp_path / "mereo.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert code == 2
    assert out == ""
    assert err == "error: $.members[1]: point index out of range\n"


@pytest.mark.parametrize(
    "payload, err",
    [
        (
            {"kind": "pca", "algebra": {"atoms": True}, "kernel": [[False, False]]},
            "error: $.algebra.atoms: atoms must be a nonnegative integer\n",
        ),
        (
            {"kind": "pca", "algebra": {"atoms": 1}, "kernel": [[False, False]]},
            "error: $.kernel[0]: expected nonnegative integers\n",
        ),
        (
            {"kind": "pca", "algebra": {"atoms": 1}, "relation": [[True, True]]},
            "error: $.relation[0]: expected nonnegative integers\n",
        ),
    ],
    ids=["atoms", "kernel", "relation"],
)
@pytest.mark.parametrize("command", ["validate", "dualize"])
def test_json_booleans_are_not_indices(tmp_path, capsys, payload, err, command):
    """true and false are refused where an index or a count is read, as
    any other non-integer is: exit 2 with the location."""
    path = tmp_path / "booleans.json"
    path.write_text(json.dumps({"schema_version": "1", **payload}))
    assert run(capsys, command, path) == (2, "", err)


DUPLICATE_NAMES = {"points": ["a", "a"], "closed_base": [[0], [1]]}


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "space", **DUPLICATE_NAMES},
        {"kind": "mereo", "space": DUPLICATE_NAMES, "members": [[], [0], [1], [0, 1]]},
        {"kind": "pcs", "space": DUPLICATE_NAMES, "subset": [0, 1], "R": [[0, 0]]},
    ],
    ids=lambda p: p["kind"],
)
@pytest.mark.parametrize(
    "command", [["validate"], ["dualize"], ["enumerate", "rc"]], ids=lambda c: c[0]
)
def test_duplicate_point_names_exit_1(tmp_path, capsys, payload, command):
    """A space built from a closed base still checks its point names."""
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps({"schema_version": "1", **payload}))
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert code == 1
    assert out == ""
    assert err == "error: point names must be distinct\n"


# ---------------------------------------------------------------------------
# golden output of validate: exact stdout, stderr and exit code

XL = {"points": ["c0", "c1", "c0-1"], "closed_base": [[0, 2], [1, 2], [2]]}
# three dense points, each pair sharing one boundary point, and no point
# in all three closures: (CS4) finds the clan of all three unrealized
TRIANGLE = {
    "points": ["a", "b", "c", "pab", "pbc", "pac"],
    "closed_base": [[0, 3, 5], [1, 3, 4], [2, 4, 5], [3], [4], [5]],
}
DISCRETE2 = {"points": ["a", "b"], "closed_base": [[0], [1]]}
# RC is {0, X}, which does not generate the closed set {b}
SIERPINSKI = {"points": ["a", "b"], "closed_base": [[0, 1], [1]]}
# the closed base {a}, {a,b}: cl{a} = {a} and cl{b} = {a,b}
SIERPINSKI_A = {"points": ["a", "b"], "closed_base": [[0], [0, 1]]}
DISCRETE4 = {"points": ["a", "b", "c", "d"], "closed_base": [[0], [1], [2], [3]]}
# dense but not T0: the indiscrete space on two points with subset {a}
NOT_T0 = {
    "schema_version": "1",
    "kind": "pcs",
    "space": {"points": ["a", "b"], "closed_base": []},
    "subset": [0],
    "R": [],
}
INVALID_END_MORPHISM = {
    "kind": "morphism",
    "variant": "pcs",
    "source": NOT_T0,
    "target": NOT_T0,
    "map": [0, 1],
}

GOLDEN_VALIDATE = {
    "pcs-valid": (
        {"kind": "pcs", "space": XL, "subset": [0, 1], "R": [[0, 0], [0, 1], [1, 0], [1, 1]]},
        0,
        """\
{
  "checks": [
    {
      "name": "(PCS1)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(PCS2)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(PCS3)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(PCS4)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(PCS5)",
      "pass": true,
      "witness": null
    }
  ],
  "kind": "pcs",
  "valid": true
}
""",
        "",
    ),
    "pcs-failing": (
        {"kind": "pcs", "space": XL, "subset": [0, 1], "R": [[0, 0], [1, 1]]},
        1,
        """\
{
  "checks": [
    {
      "name": "(PCS1)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(PCS2)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(PCS3)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(PCS4)",
      "pass": false,
      "witness": "({c0},{c1})"
    },
    {
      "name": "(PCS5)",
      "pass": true,
      "witness": null
    }
  ],
  "kind": "pcs",
  "valid": false
}
""",
        "",
    ),
    "cs-valid": (
        {"kind": "cs", "space": XL, "subset": [0, 1]},
        0,
        """\
{
  "checks": [
    {
      "name": "(CS-precondition)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(CS1)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(CS2)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(CS3)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(CS4)",
      "pass": true,
      "witness": null
    }
  ],
  "kind": "cs",
  "valid": true
}
""",
        "",
    ),
    "cs-failing": (
        {"kind": "cs", "space": TRIANGLE, "subset": [0, 1, 2]},
        1,
        """\
{
  "checks": [
    {
      "name": "(CS-precondition)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(CS1)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(CS2)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(CS3)",
      "pass": true,
      "witness": null
    },
    {
      "name": "(CS4)",
      "pass": false,
      "witness": "unrealized support {{a},{b},{c}}"
    }
  ],
  "kind": "cs",
  "valid": false
}
""",
        "",
    ),
    "mereo-valid": (
        {"kind": "mereo", "space": DISCRETE2, "members": [[], [0], [1], [0, 1]]},
        0,
        """\
{
  "checks": [
    {
      "name": "members form a closed base",
      "pass": true,
      "witness": null
    },
    {
      "name": "space is T0",
      "pass": true,
      "witness": null
    },
    {
      "name": "every clan is a point trace",
      "pass": true,
      "witness": null
    },
    {
      "name": "u-point set is a Stone subspace",
      "pass": true,
      "witness": null
    },
    {
      "name": "closures of u-point clopens reproduce the members",
      "pass": true,
      "witness": null
    },
    {
      "name": "no other dense Stone subspace reproduces the members",
      "pass": true,
      "witness": null
    }
  ],
  "is_mereocompact": true,
  "kind": "mereo",
  "valid": true
}
""",
        "",
    ),
    "mereo-failing": (
        {"kind": "mereo", "space": SIERPINSKI, "members": [[], [0, 1]]},
        1,
        """\
{
  "checks": [
    {
      "name": "members form a closed base",
      "pass": false,
      "witness": "not a mereotopological space"
    },
    {
      "name": "space is T0",
      "pass": true,
      "witness": null
    },
    {
      "name": "every clan is a point trace",
      "pass": true,
      "witness": null
    }
  ],
  "is_mereocompact": false,
  "kind": "mereo",
  "valid": false
}
""",
        "",
    ),
    "mereo-without-complements": (
        {"kind": "mereo", "space": DISCRETE2, "members": [[], [0], [0, 1]]},
        1,
        "",
        "error: subalgebra not closed under complement\n",
    ),
    "mereo-without-joins": (
        {
            "kind": "mereo",
            "space": DISCRETE4,
            "members": [[], [0, 1, 2, 3], [0, 1], [2, 3], [0, 2], [1, 3]],
        },
        1,
        "",
        "error: subalgebra not closed under join/meet\n",
    ),
    "adjacency-stone": (
        {"kind": "adjacency", "cells": ["a", "b"], "R": [[0, 1]], "topology": DISCRETE2},
        0,
        """\
{
  "checks": [
    {
      "name": "is_stone_adjacency",
      "pass": true,
      "witness": null
    }
  ],
  "kind": "adjacency",
  "valid": true
}
""",
        "",
    ),
    # cl{a} = {a} and cl{b} = {a,b}: not T1, so not Stone
    "adjacency-not-stone": (
        {"kind": "adjacency", "cells": ["a", "b"], "R": [[0, 1]], "topology": SIERPINSKI_A},
        1,
        """\
{
  "checks": [
    {
      "name": "is_stone_adjacency",
      "pass": false,
      "witness": "closure of b is {a,b}"
    }
  ],
  "kind": "adjacency",
  "valid": false
}
""",
        "",
    ),
    "adjacency-without-topology": (
        {"kind": "adjacency", "cells": ["a", "b"], "R": [[0, 1]]},
        1,
        """\
{
  "checks": [
    {
      "name": "is_stone_adjacency",
      "pass": false,
      "witness": "no topology"
    }
  ],
  "kind": "adjacency",
  "valid": false
}
""",
        "",
    ),
    # the identity on a triple that fails (PCS1): a morphism joins valid
    # triples, so the file is refused at its source
    "pcs-morphism-invalid-end": (
        INVALID_END_MORPHISM,
        1,
        "",
        "error: the source is not a 2-precontact space: (PCS1) dense=True, T0=False\n",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_VALIDATE))
def test_validate_golden_output(tmp_path, capsys, case):
    payload, code, out, err = GOLDEN_VALIDATE[case]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"schema_version": "1", **payload}))
    assert run(capsys, "validate", path) == (code, out, err)
