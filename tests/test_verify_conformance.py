"""Tests for the conformance subsystem: registry shape, a real matrix run,
and the deliberate-bug demonstration (a scale-factor bug must be caught and
named in the machine-readable report)."""

import json

import pytest

from repro.util.pool import available_cpus
from repro.verify import REGISTRY, all_invariants, run_conformance
from repro.verify.runner import Cell, default_builder

SEEDS = (7, 99)
SCALES = (0.0004, 0.0008)
FAULTS = ("clean", "paper")


@pytest.fixture(scope="module")
def conformance():
    """One real matrix run; the built worlds are kept for reuse."""
    built = {}

    def remembering_builder(cell):
        built[cell] = default_builder(cell)
        return built[cell]

    report = run_conformance(SEEDS, SCALES, FAULTS, builder=remembering_builder)
    return report, built


# -- registry shape ------------------------------------------------------------


def test_registry_has_at_least_12_named_invariants():
    invariants = all_invariants()
    assert len(invariants) >= 12
    assert len({inv.name for inv in invariants}) == len(invariants)
    for inv in invariants:
        assert inv.scope in ("world", "scale", "seed", "fault")
        assert inv.severity in ("error", "warning")
        assert inv.description
        assert inv.paper_anchor
        assert callable(inv.check)


def test_registry_covers_every_metamorphic_scope():
    scopes = {inv.scope for inv in all_invariants()}
    assert scopes == {"world", "scale", "seed", "fault"}


def test_duplicate_registration_rejected():
    from repro.verify import invariant

    with pytest.raises(ValueError):
        invariant(
            "world.onp_window",  # already registered
            scope="world",
            description="dup",
            paper_anchor="none",
        )(lambda record, tolerance: None)


# -- the real matrix -----------------------------------------------------------


def test_matrix_is_conformant(conformance):
    report, _ = conformance
    assert report.ok, report.render()
    assert report.violated() == []
    counts = report.counts()
    assert counts["fail"] == 0
    assert counts["pass"] > 0
    assert report.invariants_run >= 12
    # Every scope actually produced outcomes on a 2x2x2 matrix.
    assert {o.scope for o in report.outcomes} == {"world", "scale", "seed", "fault"}


def test_report_is_machine_readable(conformance):
    report, _ = conformance
    data = json.loads(report.to_json())
    assert data["ok"] is True
    assert data["violated"] == []
    assert data["invariants_registered"] == len(REGISTRY)
    assert len(data["matrix"]) == len(SEEDS) * len(SCALES) * len(FAULTS)
    for outcome in data["outcomes"]:
        assert outcome["invariant"] in REGISTRY
        assert outcome["status"] in ("pass", "fail", "skip")
        assert isinstance(outcome["measured"], dict)
        assert isinstance(outcome["violations"], list)


def test_skips_are_only_the_expected_ones(conformance):
    report, _ = conformance
    skipped = {o.name for o in report.outcomes if o.status == "skip"}
    # clean_world_pristine skips on faulted cells by design; nothing else
    # should lack data on a full 2x2x2 matrix.
    assert skipped <= {"world.clean_world_pristine"}


# -- the deliberate bug --------------------------------------------------------


def test_scale_factor_bug_is_caught_and_named(conformance, monkeypatch):
    """Monkeypatch the scale factor out of world construction (every cell
    gets the smallest scale's world) and the scale-monotonicity invariants
    must fail, by name, in the JSON report, with a nonzero-style verdict."""
    _, built = conformance

    def scale_blind_builder(cell):
        return built[Cell(cell.seed, SCALES[0], cell.fault_name)]

    monkeypatch.setattr("repro.verify.runner.default_builder", scale_blind_builder)
    report = run_conformance([SEEDS[0]], SCALES, ["clean"])

    assert not report.ok
    violated = report.violated()
    assert "scale.victim_population" in violated
    assert "scale.attack_count" in violated
    data = json.loads(report.to_json())
    assert data["ok"] is False
    assert "scale.victim_population" in data["violated"]
    named = [o for o in data["outcomes"] if o["invariant"] == "scale.victim_population"]
    assert any(o["status"] == "fail" and o["violations"] for o in named)


def test_crashing_check_becomes_a_violation(conformance):
    """A check that raises is reported as a failure of that invariant, not
    a crash of the harness."""
    from repro.verify.runner import _evaluate
    from repro.verify.invariants import Invariant

    bad = Invariant(
        name="test.crasher",
        scope="world",
        severity="error",
        description="always raises",
        paper_anchor="none",
        tolerance={},
        check=lambda record, tolerance: 1 / 0,
    )
    outcomes = []
    _evaluate(bad, (None,), "unit", outcomes)
    [outcome] = outcomes
    assert outcome.status == "fail"
    assert "ZeroDivisionError" in outcome.violations[0]


def test_fault_ground_truth_violation_names_the_profile(conformance):
    """A faulted world whose ground truth moved (one attack dropped) fails
    the ground-truth invariant, and the message names the fault profile."""
    import copy

    from repro.scenario.world import pack_population
    from repro.verify.runner import WorldRecord
    from tests.conftest import population

    _, built = conformance
    clean_cell = Cell(SEEDS[0], SCALES[0], "clean")
    paper_cell = Cell(SEEDS[0], SCALES[0], "paper")
    moved = copy.copy(built[paper_cell])
    pool, _, attacks = population(moved)
    _, _, moved.attacks = pack_population(pool, {}, attacks[:-1], moved.victims)
    invariant = REGISTRY["fault.ground_truth_invariant"]
    result = invariant.check(
        WorldRecord(clean_cell, built[clean_cell]),
        WorldRecord(paper_cell, moved),
        invariant.tolerance,
    )
    n = len(built[clean_cell].attacks)
    assert f"attacks: clean {n} != paper {n - 1}" in result["violations"]


# -- a one-cell matrix builds over --jobs ---------------------------------------


@pytest.mark.skipif(available_cpus() < 2, reason="the build pool needs two CPUs to engage")
def test_one_cell_matrix_builds_over_jobs(monkeypatch):
    """With one cell the cell pool cannot engage, so ``jobs`` shards that
    cell's build instead; the report is the serial one."""
    import repro.verify.runner as runner_mod

    calls = []

    def watched_builder(cell, jobs=1):
        world = default_builder(cell, jobs=jobs)
        calls.append((jobs, world.shard_stats))
        return world

    monkeypatch.setattr(runner_mod, "default_builder", watched_builder)
    pooled = run_conformance([7], [0.0004], ["clean"], jobs=2)
    ((jobs, shard_stats),) = calls
    assert jobs == 2
    for phase in ("hosts", "onp", "campaign"):
        assert shard_stats[phase]["engaged"], (phase, shard_stats[phase])
    serial = run_conformance([7], [0.0004], ["clean"], jobs=1)
    assert calls[1][0] == 1
    assert pooled.to_json() == serial.to_json()


# -- CLI ----------------------------------------------------------------------


def test_cli_verify_world_single_cell(tmp_path, capsys):
    from repro.cli import main

    report_path = tmp_path / "conformance.json"
    code = main(
        [
            "verify-world",
            "--seeds",
            "7",
            "--scales",
            "0.0004",
            "--faults",
            "clean",
            "--quiet",
            "--report",
            str(report_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "CONFORMANT" in out
    data = json.loads(report_path.read_text())
    assert data["ok"] is True
    assert data["matrix"] == [{"seed": 7, "scale": 0.0004, "faults": "clean"}]


def test_cli_verify_world_rejects_bad_inputs(capsys):
    from repro.cli import main

    assert main(["verify-world", "--faults", "nonsense", "--quiet"]) == 2
    assert "fault profile" in capsys.readouterr().err
    assert main(["verify-world", "--seeds", "seven", "--quiet"]) == 2
    assert "bad seed" in capsys.readouterr().err
