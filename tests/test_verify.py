"""The errata harness: classifications, report schema, determinism."""

import json
from pathlib import Path
from unittest import mock

import pytest

from qgue import (
    ONE,
    ZERO,
    QPolynomial,
    Scalar,
    SuiteResult,
    has_discrepancies,
    q_factorial,
    q_integer,
    qxpoly,
    render_json,
    series_coefficient,
    summary_table,
    truncated_in_shadow_basis,
    verify,
    verify_suite,
)

from oracles import cleared_duality_sum


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_suite(["theorem9"])


def test_empty_suite_list_rejected():
    # an empty report would pass has_discrepancies as clean
    with pytest.raises(ValueError):
        verify_suite([])


def test_repeated_suite_runs_once():
    bounds = {"max_weight": 2, "max_n": 2}
    twice = verify_suite(["qhz", "duality", "qhz"], **bounds)
    assert [suite.identity for suite in twice] == ["qhz", "duality"]
    assert render_json(twice) == render_json(verify_suite(["qhz", "duality"], **bounds))


def test_every_point_is_classified():
    results = verify_suite(["theorem4", "sigma", "qhz"], max_weight=4, max_vars=2, max_n=2)
    for suite in results:
        assert suite.points
        for p in suite.points:
            assert p.status in ("equal", "discrepant")


def test_theorem4_known_discrepancy():
    results = verify_suite(["theorem4"], max_weight=2, max_vars=1)
    suite = results[0]
    pt = suite.find(m=1, N=1, ell=1)
    assert pt is not None and pt.status == "discrepant"
    assert pt.ratio == -ONE and (pt.sign, pt.qpower) == (-1, 0)


def test_theorem4_discrepancies_are_monomial():
    results = verify_suite(["theorem4"], max_weight=6, max_vars=3)
    suite = results[0]
    assert suite.discrepancies
    assert all(p.is_monomial for p in suite.discrepancies)


def test_theorem2_measured_sign():
    results = verify_suite(["theorem2"], max_vars=2, max_n=2)
    suite = results[0]
    pt = suite.find(N=1, ell=1, i=0)
    assert pt.status == "discrepant" and pt.ratio == -ONE
    pt = suite.find(N=2, ell=1, i=0)
    assert pt.status == "equal"


def test_sigma_suite_required_points():
    results = verify_suite(["sigma"], max_weight=2, max_vars=2)
    suite = results[0]
    pt = suite.find(target="p2m", m=1, N=2)
    assert pt.status == "discrepant"
    expected = (Scalar.q_power(1) * q_integer(2)) / (ONE + q_integer(3))
    assert pt.ratio == expected and not pt.is_monomial
    pt = suite.find(target="sigma", m=1, t=0, N=1)
    assert pt.status == "discrepant" and pt.ratio is None
    assert "zero" in pt.note


def test_theorem5_normalization_notes():
    results = verify_suite(["theorem5"], max_weight=2, max_n=1)
    suite = results[0]
    for p in suite.points:
        assert "normalization" in p.note
    summary = suite.summary()
    assert "printed_normalization_matches" in summary
    assert "shifted_normalization_matches" in summary


def test_qhz_all_equal():
    results = verify_suite(["qhz"], max_weight=6, max_n=3)
    assert all(p.is_equal for p in results[0].points)


def test_truncation_variants():
    results = verify_suite(["truncation"], max_n=6)
    suite = results[0]
    closed = [p for p in suite.points if dict(p.params)["variant"] == "closed"]
    printed = [p for p in suite.points if dict(p.params)["variant"] == "printed"]
    assert closed and all(p.is_equal for p in closed)
    bad = [p for p in printed if not p.is_equal]
    assert bad and all(p.is_monomial for p in bad)


def test_direct_shadow_maps_are_built_once_per_pair():
    # theorem2's default (N, ell) pairs lie inside truncation's 45, and each
    # pair's forward image is built once for both suites and both variants
    for obj in vars(qxpoly).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    with mock.patch.object(qxpoly, "gaussian_op", wraps=qxpoly.gaussian_op) as spy:
        verify_suite(["theorem2", "truncation"])
    assert spy.call_count == 45
    # each caller gets its own dict
    truncated_in_shadow_basis(2, 3, "direct").clear()
    assert truncated_in_shadow_basis(2, 3, "direct")


def test_duality_and_orthogonality_clean():
    results = verify_suite(["duality", "orthogonality"], max_n=8)
    assert not has_discrepancies(results)


def test_duality_pairing_reads_every_library_coefficient():
    # each term is (e_j [j]!) (E_(d-j) [d-j]!) [d over j], an identity for any
    # values of the library's coefficients, so a wrong coefficient is reported
    # as the direct loop over every j reports it, in both bases
    def wrong(k, which, squared):
        value = series_coefficient(k, which, squared)
        return value * Scalar(QPolynomial((1, 1))) if (k, which) == (3, "E") else value

    with mock.patch.object(verify, "series_coefficient", wrong):
        got = render_json(verify_suite(["duality"], max_n=8))
    points = [
        verify._classify(
            (("d", d), ("base", "q^2" if squared else "q")),
            cleared_duality_sum(d, squared, wrong),
            q_factorial(d, squared) if d == 0 else ZERO,
        )
        for squared in (False, True)
        for d in range(9)
    ]
    want = [SuiteResult("duality", {"max_n": 8}, points)]
    assert has_discrepancies(want)
    assert got == render_json(want)


def test_report_schema_and_round_trip():
    results = verify_suite(["theorem4"], max_weight=2, max_vars=2)
    text = render_json(results)
    obj = json.loads(text)
    assert set(obj) == {"suites", "summary"}
    suite = obj["suites"][0]
    assert set(suite) == {"identity", "grid", "points", "summary"}
    for point in suite["points"]:
        assert set(point) <= {"params", "status", "ratio", "sign", "qpower", "note"}
        assert point["status"] in ("equal", "discrepant")
    # byte-identical round trip
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == text


def test_report_is_deterministic():
    a = render_json(verify_suite(["theorem2", "sigma"], max_weight=2, max_vars=2, max_n=2))
    b = render_json(verify_suite(["theorem2", "sigma"], max_weight=2, max_vars=2, max_n=2))
    assert a == b


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, suites, bounds",
    [
        # every suite with all three bounds given
        ("all_w4_v2_n3.json", ["all"], {"max_weight": 4, "max_vars": 2, "max_n": 3}),
        # theorem3 with only one of its two bounds given
        ("theorem3_w4.json", ["theorem3"], {"max_weight": 4}),
        # the direct truncation route and the theorem2 fast route at max_n 12
        ("truncation_theorem2_n12.json", ["truncation", "theorem2"], {"max_n": 12}),
        # duality at its cap, past the default d <= 30
        ("duality_n40.json", ["duality"], {"max_n": 40}),
        # theorem4 past its default (8, 4)
        ("theorem4_w12_v5.json", ["theorem4"], {"max_weight": 12, "max_vars": 5}),
        # sigma, p_2m and theorem5 past their defaults
        (
            "sigma_theorem5_w12_v4_n8.json",
            ["sigma", "theorem5"],
            {"max_weight": 12, "max_vars": 4, "max_n": 8},
        ),
    ],
)
def test_report_matches_golden_bytes(golden, suites, bounds):
    assert render_json(verify_suite(suites, **bounds)) == (GOLDEN / golden).read_text()


def test_theorem3_default_grid():
    # max_n is not a theorem3 bound, so the default grid still applies
    suite = verify_suite(["theorem3"], max_n=2)[0]
    assert suite.grid == {"max_weight": 6, "max_vars": 4}
    top = {}
    for p in suite.points:
        params = dict(p.params)
        weight = sum(int(part) for part in params["kappa"].split(",") if part)
        top[params["N"]] = max(top.get(params["N"], 0), weight)
    assert top == {1: 6, 2: 6, 3: 6, 4: 4}


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="theorem4, qhz") as exc:
        verify_suite(["theorem4", "qhz", "orthogonality"], max_weight=-2, max_n=1)
    assert "orthogonality" not in str(exc.value)


def test_summary_table_lists_every_suite():
    results = verify_suite(["qhz", "theorem4"], max_weight=2, max_vars=1, max_n=1)
    table = summary_table(results)
    assert "qhz" in table and "theorem4" in table


def test_exit_status_helper():
    clean = verify_suite(["qhz"], max_weight=2, max_n=1)
    assert not has_discrepancies(clean)
    dirty = verify_suite(["theorem4"], max_weight=2, max_vars=1)
    assert has_discrepancies(dirty)
