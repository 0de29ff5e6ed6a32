"""The verification-suite layer itself: registry, determinism,
report plumbing.  Full-strength runs happen in the acceptance tests;
here the randomized suites run with small trial counts."""

import json
import math

import pytest

import numpy as np

import confbc.gaussian_bounds as gb
from confbc.errors import ConfbcError
from confbc.suites import _finite_json, _gap_channels, run_suite, suite_names


EXPECTED = {
    "alpha-star",
    "dm-example1",
    "dm-fig3",
    "fm-equivalence",
    "gauss-degraded",
    "gauss-gaps",
    "gauss-t7",
    "gauss-t8",
    "gauss-vanishing-power",
    "info-properties",
    "relay-largest-rate",
}


def test_registry_names():
    names = suite_names()
    assert set(names) == EXPECTED
    assert names == sorted(names)


def test_unknown_suite_lists_options():
    with pytest.raises(ConfbcError) as exc:
        run_suite("definitely-not-a-suite")
    assert "alpha-star" in str(exc.value)


def test_finite_json_arrays():
    # a finite float array is one list; any other array goes value by
    # value, so +-inf and NaN become strings, as they do outside arrays
    finite = np.array([[0.5, -0.0], [1e-300, 2.0]])
    assert _finite_json(finite) == finite.tolist()
    mixed = np.array([[1.0, np.inf], [-np.inf, np.nan]])
    assert _finite_json({"a": mixed, "b": [np.float64(-np.inf), mixed[0]]}) == \
        {"a": [[1.0, "inf"], ["-inf", "nan"]], "b": ["-inf", [1.0, "inf"]]}
    assert _finite_json(np.array([3, 4])) == [3, 4]
    assert _finite_json(np.array(np.nan)) == "nan"
    assert _finite_json(np.empty((0, 3))) == []
    # strict JSON throughout
    json.dumps(_finite_json(mixed), allow_nan=False)


def test_report_plumbing():
    rep = run_suite("relay-largest-rate", seed=0, trials=5)
    assert rep.suite == "relay-largest-rate"
    assert rep.seed == 0
    assert rep.passed is True
    lines = rep.summary_lines()
    assert lines and all(l.startswith(("PASS", "FAIL")) for l in lines)
    # the json form must be strict-JSON serializable (no bare inf/nan)
    doc = rep.to_json_dict()
    json.dumps(doc, allow_nan=False)
    assert doc["pass"] is True
    assert doc["suite"] == "relay-largest-rate"
    assert len(doc["checks"]) == len(lines)


def test_seeded_determinism():
    a = run_suite("info-properties", seed=3, trials=40)
    b = run_suite("info-properties", seed=3, trials=40)
    assert a.to_json_dict() == b.to_json_dict()
    c = run_suite("info-properties", seed=4, trials=40)
    # same verdicts, different draws: the measured extremes move
    assert c.to_json_dict() != a.to_json_dict()
    assert c.passed


def test_small_runs_of_randomized_suites():
    assert run_suite("alpha-star", seed=1, trials=6, n_alpha=5).passed
    assert run_suite("fm-equivalence", seed=1, trials=8, n_dirs=6).passed
    assert run_suite("gauss-gaps", seed=1, trials=25).passed


def _tightened_claims():
    """_GAP_PAIRS with the two-sided half bit claimed as 0 bits, so
    certificates fail, and the one-sided one as +inf bits."""
    (n0, i0, _, p0), (n1, i1, _, p1), rest = gb._GAP_PAIRS
    return ((n0, i0, lambda ch: 0.0, p0), (n1, i1, lambda ch: math.inf, p1), rest)


@pytest.mark.parametrize("claims", ["published", "tightened"])
@pytest.mark.parametrize("seed", range(4))
def test_gauss_gaps_verdicts_equal_the_certificates(seed, claims, monkeypatch):
    # the suite reads the gap table with numpy, gap_certificates builds
    # dicts from it: the least slack of each section and the failure
    # count must be the same floats and count either way
    if claims == "tightened":
        monkeypatch.setattr(gb, "_GAP_PAIRS", _tightened_claims())
    trials, step = 30, 0.05
    checks = {c["name"]: c for c in
              run_suite("gauss-gaps", seed=seed, trials=trials, beta_step=step).checks}
    certs = gb.gap_certificates(_gap_channels(np.random.default_rng(seed), trials),
                                beta_step=step)
    want = {}
    for cert in certs:
        for sec in cert["sections"]:
            want[sec["name"]] = min(want.get(sec["name"], math.inf),
                                    min(q["slack_bits"] for q in sec["pairs"]))
    failures = sum(not cert["pass"] for cert in certs)
    assert checks["all-certificates-pass"]["failures"] == failures
    assert (failures > 0) == (claims == "tightened")
    assert {name[len("slack-"):]: c["min_slack_bits"] for name, c in checks.items()
            if name.startswith("slack-")} == want
    assert len(want) == 3


def test_one_sided_exact_region_suite():
    # not part of the acceptance gate, so give it a full run here
    rep = run_suite("gauss-t8", seed=0)
    assert rep.passed, rep.summary_lines()


def test_vanishing_power_suite():
    rep = run_suite("gauss-vanishing-power", seed=0)
    assert rep.passed
    names = [c["name"] for c in rep.checks]
    assert any("mirror" in n or "power" in n or "link" in n for n in names)
