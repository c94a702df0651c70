"""Tests for survival curves and the remediation model."""

import pytest

from repro.population import (
    RemediationModel,
    SurvivalCurve,
    dns_survival_curve,
    monlist_survival_curve,
    version_survival_curve,
)
from repro.population.remediation import calibrated_monlist_curve
from repro.util import date_to_sim


def test_survival_curve_validation():
    with pytest.raises(ValueError):
        SurvivalCurve([(0.0, 1.0)])
    with pytest.raises(ValueError):
        SurvivalCurve([(0.0, 1.0), (0.0, 0.5)])
    with pytest.raises(ValueError):
        SurvivalCurve([(0.0, 0.5), (1.0, 0.9)])  # increasing
    with pytest.raises(ValueError):
        SurvivalCurve([(0.0, 1.5), (1.0, 0.5)])


def test_survival_value_endpoints():
    curve = SurvivalCurve([(10.0, 1.0), (20.0, 0.1)])
    assert curve.value_at(0.0) == 1.0
    assert curve.value_at(25.0) == pytest.approx(0.1)
    assert curve.floor == pytest.approx(0.1)
    # Exponential interpolation passes through sqrt(0.1) at the midpoint.
    assert curve.value_at(15.0) == pytest.approx(0.1**0.5)


def test_inverse_round_trip():
    curve = monlist_survival_curve()
    for s in (0.9, 0.5, 0.2, 0.1):
        t = curve.inverse(s)
        assert t is not None
        assert curve.value_at(t) == pytest.approx(s, rel=1e-6)


def test_inverse_below_floor_is_none():
    curve = monlist_survival_curve()
    assert curve.inverse(curve.floor / 2) is None


def test_inverse_validates():
    curve = monlist_survival_curve()
    with pytest.raises(ValueError):
        curve.inverse(0.0)
    with pytest.raises(ValueError):
        curve.inverse(1.5)


def test_monlist_curve_matches_paper_anchors():
    curve = monlist_survival_curve()
    assert curve.value_at(date_to_sim(2014, 1, 10)) == pytest.approx(1.0)
    assert curve.value_at(date_to_sim(2014, 1, 24)) == pytest.approx(0.482, rel=0.01)
    assert curve.value_at(date_to_sim(2014, 4, 18)) == pytest.approx(0.074, rel=0.01)


def test_version_and_dns_curves_decay_slowly():
    version = version_survival_curve()
    assert version.value_at(date_to_sim(2014, 2, 21)) == pytest.approx(1.0)
    assert version.value_at(date_to_sim(2014, 4, 18)) == pytest.approx(0.81, rel=0.02)
    dns = dns_survival_curve()
    assert dns.value_at(date_to_sim(2014, 4, 18)) > 0.85


def test_calibrated_curve_is_below_paper_curve():
    """The per-host baseline must decay faster than the observed pool (the
    mixture of sub-1 multipliers plus churn re-inflates it)."""
    paper = monlist_survival_curve()
    calibrated = calibrated_monlist_curve()
    t = date_to_sim(2014, 3, 14)
    assert calibrated.value_at(t) < paper.value_at(t)


def test_multiplier_ordering():
    model = RemediationModel()
    assert model.multiplier_for("NA", False) > model.multiplier_for("SA", False)
    assert model.multiplier_for("EU", False) > model.multiplier_for("EU", True)


def test_sample_time_faster_for_higher_multiplier():
    model = RemediationModel()
    u = 0.5
    fast = model.sample_time(u, multiplier=2.0)
    slow = model.sample_time(u, multiplier=0.5)
    assert fast is not None
    assert slow is None or slow > fast


def test_sample_time_validates():
    model = RemediationModel()
    with pytest.raises(ValueError):
        model.sample_time(0.0)
    with pytest.raises(ValueError):
        model.sample_time(0.5, multiplier=0.0)
