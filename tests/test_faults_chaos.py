"""Chaos test: the full artifact sweep under the hostile fault profile.

Builds one world through a heavily-degraded measurement apparatus and
asserts the analysis pipeline *degrades* — every F1-F16/T1-T6 artifact,
the summary, and the quality report render without an exception — and
that the headline numbers stay within bounded drift of the clean world's
golden values (the apparatus loses data; it must not invent it).
"""

import pytest

from repro.analysis import quality_report
from repro.cli import ARTIFACTS, render_artifact
from repro.faults import HOSTILE_PROFILE
from repro.scenario import PaperWorld, WorldParams

#: Same world as tests/test_perf_equivalence.py's golden world, but probed
#: through the hostile apparatus.
CHAOS_SEED = 7
CHAOS_SCALE = 0.0005

#: Clean-world golden values (pinned in test_perf_equivalence.GOLDEN_SUMMARY).
CLEAN_UNIQUE_AMPLIFIER_IPS = 957
CLEAN_FIRST_SAMPLE_POOL = 717


@pytest.fixture(scope="module")
def hostile_world():
    params = WorldParams(seed=CHAOS_SEED, scale=CHAOS_SCALE, faults=HOSTILE_PROFILE)
    return PaperWorld.build(params=params, quiet=True)


def test_hostile_world_recorded_faults(hostile_world):
    log = hostile_world.fault_log
    assert log is not None and log.total > 0
    # Every fault site actually fired under the hostile rates.
    for kind in (
        "onp.monlist.truncated_response",
        "onp.monlist.duplicated_packet",
        "onp.monlist.reordered_response",
        "onp.monlist.corrupted_packet",
        "onp.monlist.sample_outage",
        "darknet.down_day",
        "arbor.missing_day",
    ):
        assert log.get(kind) > 0, f"hostile profile never fired {kind}"


@pytest.mark.parametrize("artifact_id", sorted(ARTIFACTS))
def test_all_artifacts_render_under_hostile_faults(hostile_world, artifact_id):
    out = render_artifact(hostile_world, artifact_id)
    assert isinstance(out, str) and out.strip()


def test_summary_renders_under_hostile_faults(hostile_world):
    summary = hostile_world.summary()
    assert "PaperWorld(seed=7" in summary
    assert "Window:" in summary


def test_quality_report_reconciles(hostile_world):
    report = quality_report(hostile_world)
    assert report.injected_total > 0
    assert report.ok, "\n".join(c.describe() for c in report.checks if not c.ok)
    text = report.render()
    assert "RECONCILED" in text and "FAILED" not in text
    assert report.monlist_stats.captures_total > 0
    # The parse layer salvaged degraded captures rather than dropping them.
    assert report.monlist_stats.captures_salvaged > 0
    assert report.monlist_stats.entries_recovered > 0


def test_bounded_drift_from_clean_world(hostile_world):
    """Faults only *remove* observations: the degraded study sees fewer
    amplifiers than the clean apparatus did, but not absurdly fewer."""
    from repro.analysis import AnalysisContext, churn_report

    parsed = AnalysisContext(hostile_world).parsed_samples()
    churn = churn_report(parsed)
    assert churn.total_unique <= CLEAN_UNIQUE_AMPLIFIER_IPS
    assert churn.total_unique >= 0.5 * CLEAN_UNIQUE_AMPLIFIER_IPS
    measured = [len(p.amplifier_ips()) for p in parsed if not p.outage and p.tables]
    assert measured, "every weekly sweep was lost"
    assert max(measured) <= CLEAN_FIRST_SAMPLE_POOL
    assert max(measured) >= 0.4 * CLEAN_FIRST_SAMPLE_POOL


def test_clean_quality_report_is_all_zero(world):
    """The session (clean) world: empty injection log, no parse losses."""
    report = quality_report(world)
    assert report.injected_total == 0
    assert report.ok
    assert report.monlist_outages == 0
    assert report.monlist_stats.captures_failed == 0
    assert not report.monlist_stats.degraded
    assert report.darknet_down_days == 0
    assert report.arbor_missing_days == 0
    assert "clean apparatus" in report.render()
