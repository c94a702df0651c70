"""Tests for statistics helpers."""

import math

import pytest

from repro.util import Ecdf, boxplot_summary, percentile, rank_series


def test_percentile_basic():
    assert percentile([1, 2, 3, 4, 5], 50) == 3.0


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 50))


def test_boxplot_summary_five_numbers():
    s = boxplot_summary(range(1, 101))
    assert s.minimum == 1.0
    assert s.maximum == 100.0
    assert 49 <= s.median <= 52
    assert 24 <= s.q1 <= 27
    assert 74 <= s.q3 <= 77
    assert s.count == 100


def test_boxplot_summary_rejects_empty():
    with pytest.raises(ValueError):
        boxplot_summary([])


def test_ecdf_top_k_fraction():
    ecdf = Ecdf([50, 30, 10, 5, 5])
    assert ecdf.fraction_within_top(1) == pytest.approx(0.5)
    assert ecdf.fraction_within_top(2) == pytest.approx(0.8)
    assert ecdf.fraction_within_top(100) == pytest.approx(1.0)
    assert ecdf.fraction_within_top(0) == 0.0


def test_ecdf_rejects_bad_input():
    with pytest.raises(ValueError):
        Ecdf([])
    with pytest.raises(ValueError):
        Ecdf([0, 0])
    with pytest.raises(ValueError):
        Ecdf([1, -1])


def test_rank_series_descending():
    series = rank_series([10, 30, 20])
    assert series == [(1, 30.0), (2, 20.0), (3, 10.0)]
