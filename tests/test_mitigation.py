"""Tests for the mitigation package (notification, rate limits, BCP38)."""

import numpy as np
import pytest

from repro.mitigation import (
    Bcp38Policy,
    NotificationCampaign,
    apply_rate_limit,
    filter_attacks,
    notified_remediation_model,
)
from repro.mitigation.notification import NotificationWave
from repro.util import RngStream, date_to_sim


# -- notification ----------------------------------------------------------------


def test_wave_validation():
    with pytest.raises(ValueError):
        NotificationWave(t=0.0, reach=1.5, hazard_multiplier=2.0)
    with pytest.raises(ValueError):
        NotificationWave(t=0.0, reach=0.5, hazard_multiplier=0.5)


def test_campaign_must_be_chronological():
    waves = (
        NotificationWave(t=10.0, reach=0.5, hazard_multiplier=2.0),
        NotificationWave(t=5.0, reach=0.5, hazard_multiplier=2.0),
    )
    with pytest.raises(ValueError):
        NotificationCampaign(waves=waves)


def test_average_boost_accumulates():
    campaign = NotificationCampaign.kuhrer_style()
    before = campaign.average_boost_after(date_to_sim(2014, 1, 1))
    mid = campaign.average_boost_after(date_to_sim(2014, 1, 20))
    late = campaign.average_boost_after(date_to_sim(2014, 3, 1))
    assert before == 1.0
    assert 1.0 < mid < late


def test_counterfactual_slows_remediation():
    """Without the notification campaign, the pool survives longer."""
    with_campaign = notified_remediation_model(with_campaign=True)
    without = notified_remediation_model(with_campaign=False)
    t = date_to_sim(2014, 3, 14)
    assert without.curve.value_at(t) > with_campaign.curve.value_at(t)
    # The counterfactual still remediates substantially (self-interest,
    # publicity): survival stays below ~60% by mid-March.
    assert without.curve.value_at(t) < 0.6


def test_counterfactual_sampling_consistency():
    """Same uniform draw -> later (or equal) remediation without campaign."""
    with_campaign = notified_remediation_model(with_campaign=True)
    without = notified_remediation_model(with_campaign=False)
    for u in (0.9, 0.5, 0.2):
        t_with = with_campaign.sample_time(u)
        t_without = without.sample_time(u)
        if t_with is None:
            assert t_without is None or t_without > 0
        elif t_without is not None:
            assert t_without >= t_with - 1.0


# -- rate limiting ----------------------------------------------------------------


def test_rate_limit_caps_series():
    series = np.array([100.0, 5000.0, 100.0])
    # Cap of 800 bytes/hour expressed in bps.
    cap_bps = 800 * 8 / 3600
    result = apply_rate_limit(series, cap_bps)
    assert result.limited.max() <= 800.0 + 1e-9
    assert result.dropped_bytes == pytest.approx(4200.0)
    assert result.passed_bytes == pytest.approx(100.0 + 800.0 + 100.0)
    assert 0 < result.dropped_fraction < 1


def test_rate_limit_activation_time():
    series = np.array([5000.0, 5000.0])
    cap_bps = 800 * 8 / 3600
    result = apply_rate_limit(series, cap_bps, activation_hour=1)
    assert result.limited[0] == 5000.0  # untouched before activation
    assert result.limited[1] <= 800.0 + 1e-9


def test_rate_limit_validation():
    with pytest.raises(ValueError):
        apply_rate_limit([1.0], 0.0)
    with pytest.raises(ValueError):
        apply_rate_limit([1.0], 10.0, activation_hour=5)


def test_rate_limit_noop_when_under_cap():
    series = np.array([10.0, 10.0])
    result = apply_rate_limit(series, cap_bps=1e9)
    assert result.dropped_fraction == 0.0
    assert np.array_equal(result.limited, series)


def test_rate_limit_on_world_series(world):
    """Applying Merit's rate limit absorbs a meaningful share of the
    February attack egress."""
    merit = world.isp.sites["merit"]
    result = apply_rate_limit(merit.ntp_out, cap_bps=20e6, activation_hour=24 * 20)
    assert result.dropped_fraction > 0.1
    assert result.limited.sum() < merit.ntp_out.sum()


# -- BCP38 ----------------------------------------------------------------


def test_policy_bounds():
    with pytest.raises(ValueError):
        Bcp38Policy(adoption=-0.1)
    with pytest.raises(ValueError):
        Bcp38Policy(adoption=1.1)


def test_zero_and_full_adoption(world_population):
    attacks = world_population[2][:200]
    delivered, blocked = filter_attacks(attacks, Bcp38Policy(0.0))
    assert len(delivered) == len(attacks) and not blocked
    delivered, blocked = filter_attacks(attacks, Bcp38Policy(1.0))
    assert len(blocked) == len(attacks) and not delivered


def test_adoption_is_monotone(world_population):
    attacks = world_population[2][:500]
    blocked_counts = []
    for adoption in (0.2, 0.5, 0.8):
        _, blocked = filter_attacks(attacks, Bcp38Policy(adoption))
        blocked_counts.append(len(blocked))
    assert blocked_counts[0] < blocked_counts[1] < blocked_counts[2]
    # Roughly proportional to adoption.
    assert blocked_counts[1] == pytest.approx(250, rel=0.35)


def test_blocking_is_deterministic(world_population):
    attacks = world_population[2][:100]
    policy = Bcp38Policy(0.5)
    a = [policy.blocks(x) for x in attacks]
    b = [policy.blocks(x) for x in attacks]
    assert a == b
