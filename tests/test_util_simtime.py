"""Tests for simulation time helpers."""

import pytest

from repro.util import (
    DAY,
    HOUR,
    Timeline,
    WEEK,
    date_to_sim,
    day_index,
    format_sim,
    month_key,
    sim_to_date,
    week_samples,
)


def test_epoch_is_zero():
    assert date_to_sim(2013, 9, 1) == 0.0


def test_round_trip():
    t = date_to_sim(2014, 2, 11, 13, 30)
    d = sim_to_date(t)
    assert (d.year, d.month, d.day, d.hour, d.minute) == (2014, 2, 11, 13, 30)


def test_format_sim():
    assert format_sim(date_to_sim(2014, 1, 10)) == "2014-01-10"


def test_day_index():
    t = date_to_sim(2013, 9, 2, 5)
    assert day_index(t) == 1


def test_month_key():
    assert month_key(date_to_sim(2014, 2, 28, 23)) == "2014-02"


def test_week_samples_match_onp_dates():
    samples = week_samples(date_to_sim(2014, 1, 10), 15)
    assert len(samples) == 15
    assert format_sim(samples[0]) == "2014-01-10"
    assert format_sim(samples[5]) == "2014-02-14"
    assert format_sim(samples[-1]) == "2014-04-18"


def test_week_samples_rejects_negative_count():
    with pytest.raises(ValueError):
        week_samples(0.0, -1)


def test_timeline_interpolates_linearly():
    line = Timeline([(0.0, 0.0), (10.0, 100.0)])
    assert line(5.0) == pytest.approx(50.0)
    assert line(-1.0) == 0.0
    assert line(11.0) == 100.0


def test_timeline_log_interpolation():
    line = Timeline([(0.0, 1e-5), (2.0, 1e-3)], log=True)
    assert line(1.0) == pytest.approx(1e-4, rel=1e-6)


def test_timeline_validation():
    with pytest.raises(ValueError):
        Timeline([(0.0, 1.0)])
    with pytest.raises(ValueError):
        Timeline([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError):
        Timeline([(0.0, 0.0), (1.0, 1.0)], log=True)


def test_constants_consistent():
    assert WEEK == 7 * DAY
    assert DAY == 24 * HOUR
