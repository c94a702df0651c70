"""Tests for system-variable rendering and parsing."""

import pytest

from repro.ntp import (
    extract_compile_year,
    parse_system_variables,
    render_system_variables,
)


def test_render_and_parse_round_trip():
    payload = render_system_variables("4.2.6p5", 2012, "Linux/3.2.0", "x86_64", 3, "10.0.0.1")
    variables = parse_system_variables(payload)
    assert variables["system"] == "Linux/3.2.0"
    assert variables["processor"] == "x86_64"
    assert variables["stratum"] == "3"
    assert extract_compile_year(variables["version"]) == 2012


def test_render_extra_vars_changes_length():
    short = render_system_variables("4.2.6p5", 2012, "Unix", "i386", 3, "r", extra_vars=0)
    long = render_system_variables("4.2.6p5", 2012, "Unix", "i386", 3, "r", extra_vars=10)
    assert len(long) > len(short)


def test_render_validates_extra_vars():
    with pytest.raises(ValueError):
        render_system_variables("4", 2012, "Unix", "i386", 3, "r", extra_vars=99)


def test_parse_accepts_bytes():
    payload = render_system_variables("4.2.6p5", 2012, "cisco", "mips", 2, "r").encode()
    assert parse_system_variables(payload)["system"] == "cisco"


def test_extract_compile_year_edge_cases():
    assert extract_compile_year(None) is None
    assert extract_compile_year("no year here") is None
    assert extract_compile_year("UTC 1989 (1)") is None  # out of sane range
    assert extract_compile_year("blah UTC 2004 (1)") == 2004

