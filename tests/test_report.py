import json

import pytest

from contactlab.report import Check, CheckList, DualityReport, ReportBuilder, verdict
from contactlab.structures import (
    MereocompactReport,
    StoneTwoSpace,
    TwoContactSpace,
    TwoPrecontactSpace,
    mereocompactness_report,
    validate_cs,
    validate_pcs,
    validate_s2s,
)
from contactlab.topology import (
    FiniteSpace,
    MereotopologicalPair,
    discrete_space,
    rc_members,
    space_from_closed_base,
)


def test_builder_nulls_witness_on_pass():
    builder = ReportBuilder("subject")
    builder.add("good", True, witness="ignored")
    builder.add("bad", False, witness="kept")
    builder.add("silent", False)
    report = builder.done()
    assert report.check("good").witness is None
    assert report.check("bad").witness == "kept"
    assert report.check("silent").witness == "no witness recorded"
    assert not report.ok
    assert [c.name for c in report.failures] == ["bad", "silent"]


def test_a_check_is_one_tuple():
    check = Check("c", False, "why")
    assert check == ("c", False, "why") and hash(check) == hash(("c", False, "why"))
    assert Check("c", True) == ("c", True, None)
    assert repr(check) == "Check(name='c', passed=False, witness='why')"
    assert check.as_dict() == {"name": "c", "pass": False, "witness": "why"}


def test_passing_checks_are_shared_by_name():
    first, second = ReportBuilder("a"), ReportBuilder("b")
    for builder in (first, second):
        builder.add("shared", True, "dropped")
        builder.add("failed", False, "why")
    (good, bad), (good_again, bad_again) = first.checks, second.checks
    assert good is good_again and good == ("shared", True, None)
    assert bad == bad_again and bad is not bad_again
    assert verdict("shared", True, "dropped") is good
    assert verdict("failed", False) == ("failed", False, "no witness recorded")


def test_builder_records_elapsed():
    report = ReportBuilder("timed").done()
    assert report.elapsed_ms is not None and report.elapsed_ms >= 0


def test_elapsed_excluded_from_default_serialization():
    report = ReportBuilder("timed").done()
    assert "elapsed_ms" not in report.as_dict()
    assert report.elapsed_ms is not None


def test_reports_with_different_timings_compare_equal():
    a = DualityReport("s", (Check("c", True),), 1.0)
    b = DualityReport("s", (Check("c", True),), 2.0)
    assert a == b


def test_report_serialization_shape():
    report = DualityReport("s", (Check("c", False, "why"),))
    payload = report.as_dict()
    assert json.dumps(payload, sort_keys=True)
    assert payload == {
        "subject": "s",
        "checks": [{"name": "c", "pass": False, "witness": "why"}],
    }


# ---------------------------------------------------------------------------
# one check-list shape for reports and validated structures


def _broken_report():
    builder = ReportBuilder("broken on purpose")
    builder.add("kept", True)
    builder.add("broken", False, witness="w")
    return builder.done()


def _broken_mereo():
    # three dense points pairwise joined by a boundary point and no point
    # in all three closures: the overlap clan of the three atoms is
    # realized by no point
    space = FiniteSpace(
        ("a", "b", "c", "pab", "pbc", "pac"),
        (0b101001, 0b011010, 0b110100, 0b001000, 0b010000, 0b100000),
    )
    mereo = MereotopologicalPair.from_members(space, rc_members(space))
    return mereocompactness_report(mereo)


XL = space_from_closed_base(("g1", "g2", "g3"), [0b101, 0b110])
DISC2 = discrete_space(("a", "b"))

BROKEN = {
    DualityReport: (_broken_report, "broken", "w"),
    TwoPrecontactSpace: (
        lambda: validate_pcs(XL, 0b011, frozenset({(0, 0), (1, 1)})),
        "(PCS4)",
        "({g1},{g2})",
    ),
    TwoContactSpace: (
        lambda: validate_cs(DISC2, 0b01),
        "(CS-precondition)",
        "closure of the subset is {a}",
    ),
    StoneTwoSpace: (
        lambda: validate_s2s(DISC2, 0b11),
        "(S2S4)",
        "unrealized support {{a},{b}}",
    ),
    MereocompactReport: (
        _broken_mereo,
        "every clan is a point trace",
        "unrealized clan support {{b,pab,pbc},{a,pab,pac},{c,pbc,pac}}",
    ),
}


@pytest.mark.parametrize("kind", list(BROKEN), ids=lambda k: k.__name__)
def test_every_check_list_reads_the_same_way(kind):
    build, name, witness = BROKEN[kind]
    checks = build()
    assert type(checks) is kind and isinstance(checks, CheckList)
    assert not checks.ok
    assert type(checks.failures) is tuple
    assert checks.failures == tuple(c for c in checks.checks if not c.passed)
    assert checks.failures[0] is checks.check(name)
    assert checks.check(name).witness == witness
    assert all(c.witness is None for c in checks.checks if c.passed)
    with pytest.raises(KeyError):
        checks.check("no such check")
    summary = "; ".join(f"{c.name}: {c.witness}" for c in checks.failures)
    assert checks.failure_summary(": ") == summary
    assert checks.failure_summary(" ").startswith(f"{name} {witness}")


def test_summary_of_two_failures_and_of_none():
    cs = validate_cs(DISC2, 0b01)
    assert cs.failure_summary(" ") == (
        "(CS-precondition) closure of the subset is {a}; "
        "(CS3) the pair's regular closed sets are not a closed base"
    )
    valid = validate_cs(XL, 0b011)
    assert valid.ok and valid.failures == () and valid.failure_summary(" ") == ""
