"""Direct tests for the graceful-degradation rendering paths: figure gap
markers and ``world.summary()`` over empty/degraded datasets (previously
asserted only indirectly through the chaos sweep)."""

import copy

from repro.reporting.figures import GAP_CHAR, ascii_bars, ascii_chart, sparkline


# -- sparkline gap markers -----------------------------------------------------


def test_sparkline_renders_gaps_distinct_from_zero():
    line = sparkline([0.0, None, 5.0, None, 10.0])
    assert line[1] == GAP_CHAR and line[3] == GAP_CHAR
    assert line[0] == " "  # a zero is blank, not a gap
    assert line[4] != GAP_CHAR


def test_sparkline_all_gaps():
    assert sparkline([None, None, None]) == GAP_CHAR * 3


def test_sparkline_empty():
    assert sparkline([]) == ""


def test_sparkline_downsampling_preserves_gap_only_chunks():
    # 4 values into width 2: chunk [None, None] must stay a gap, the chunk
    # with a real value must show it.
    line = sparkline([None, None, 3.0, 9.0], width=2)
    assert len(line) == 2
    assert line[0] == GAP_CHAR
    assert line[1] != GAP_CHAR


# -- ascii_chart gap markers ---------------------------------------------------


def test_ascii_chart_marks_gap_columns_and_counts_them():
    series = [(0, 1.0), (1, None), (2, 4.0), (3, None), (4, 2.0)]
    chart = ascii_chart(series, height=4, width=5)
    assert GAP_CHAR in chart
    assert f"{GAP_CHAR} = no data: 2 gap column(s)" in chart


def test_ascii_chart_all_gaps_degrades_to_message():
    assert ascii_chart([(0, None), (1, None)]) == "(no data: all points are measurement gaps)"


def test_ascii_chart_empty_series():
    assert ascii_chart([]) == "(empty series)"


def test_ascii_chart_log_axis_with_gaps_does_not_crash():
    series = [(0, 1e-5), (1, None), (2, 1e-2)]
    chart = ascii_chart(series, height=4, width=3, log=True)
    assert GAP_CHAR in chart


def test_ascii_bars_empty():
    assert ascii_bars([]) == "(no data)"


# -- world.summary() on degraded datasets --------------------------------------


def _degraded_copy(world, *, no_monlist=False, no_versions=False, no_arbor=False):
    """A shallow world copy with selected datasets emptied — simulating an
    apparatus that recorded nothing, without rebuilding anything."""
    degraded = copy.copy(world)
    degraded.onp = copy.copy(world.onp)
    if no_monlist:
        degraded.onp.monlist_samples = []
    if no_versions:
        degraded.onp.version_samples = []
    if no_arbor:
        degraded.arbor = copy.copy(world.arbor)
        degraded.arbor.daily = []
    return degraded


def test_summary_survives_empty_monlist_corpus(world):
    degraded = _degraded_copy(world, no_monlist=True)
    text = degraded.summary()
    assert "Amplifier pool: (no data" in text
    assert "Window: (no data" in text
    assert "Unique amplifier IPs: 0" in text


def test_summary_survives_everything_empty(world):
    degraded = _degraded_copy(world, no_monlist=True, no_versions=True, no_arbor=True)
    text = degraded.summary()
    assert "NTP traffic fraction: (no data" in text
    assert "BAF: (no data" in text
    assert "Window: (no data" in text
    # The ground-truth headline still renders (it needs no measurements).
    assert "host records" in text


def test_summary_window_line_counts_samples(world):
    text = world.summary()
    assert f"({len(world.onp.monlist_samples)} weekly samples)" in text


def test_summary_on_clean_world_reports_all_sections(world):
    text = world.summary()
    for marker in ("NTP traffic fraction:", "Amplifier pool:", "BAF:", "Victims observed:", "Window:"):
        assert marker in text
    assert "(no data" not in text


# -- Table 3's note when no table is probe-topped --------------------------------


def test_table3_note_when_no_table_is_probe_topped(world, monkeypatch):
    """With the prober at an address no monlist table holds, T3 renders a
    note instead of a table: its counts add up and it names the sample."""
    import re

    import repro.attack
    from repro.cli import render_artifact

    monkeypatch.setattr(repro.attack, "ONP_PROBER_IP", 0)
    text = render_artifact(world, "T3")
    samples = world.onp.monlist_samples
    sample = samples[min(6, len(samples) - 1)]
    match = re.fullmatch(
        r"\(no probe-topped table found: scanned (\d+) captures of sample (\S+) — "
        r"(\d+) parsed, (\d+) unparseable\)",
        text,
    )
    assert match, text
    total, date, parsed, failed = match.groups()
    assert date == sample.date
    assert int(total) == len(sample.captures) > 0
    assert int(parsed) + int(failed) == int(total)
    assert int(parsed) > 0


# -- an outage sample: an empty packed store, read as a gap ------------------


def test_outage_sample_carries_an_empty_store_through_every_reader(world, world_population):
    """A sweep lost to an apparatus outage is still a sample, holding an
    empty packed store: the corpus decode, the replay, the version parse
    and Fig 4c each read it as a gap."""
    from repro.analysis.event_columns import columns_for_sample
    from repro.analysis.versions import parse_version_samples
    from repro.attack.scanner import RESEARCH_SCANNERS
    from repro.cli import render_artifact
    from repro.faults import FaultInjector, FaultProfile
    from repro.measurement.amplifier_state import AmplifierStateManager
    from repro.measurement.onp import OnpProber
    from repro.stream.replay import CAPTURE, SWEEP, replay_records
    from repro.util import RngStream, format_sim
    from tests.strategies import parse_version_captures

    faults = FaultInjector(FaultProfile(onp_sample_outage_rate=1.0), RngStream(1, "faults"))
    state = AmplifierStateManager(RngStream(1, "state"), RESEARCH_SCANNERS)
    t_monlist = world.onp.monlist_samples[0].t
    t_version = world.onp.version_samples[0].t
    onp = OnpProber(state, faults=faults).run_all(
        world_population[0],
        RngStream(1, "onp"),
        monlist_times=[t_monlist],
        version_times=[t_version],
    )
    (monlist,), (version,) = onp.monlist_samples, onp.version_samples
    for sample in (monlist, version):
        assert sample.outage and len(sample) == len(sample.packed) == 0

    (view,) = columns_for_sample(monlist).sample_views()
    assert view.outage and len(view) == 0 and view.stats.captures_total == 0

    degraded = _degraded_copy(world)
    degraded.onp = onp
    records = replay_records(degraded)
    assert (records.kind == SWEEP).sum() == 1
    assert (records.kind == CAPTURE).sum() == 0
    assert records.tables.sweeps == [{"outage": True, "coverage": 1.0, "n_captures": 0}]

    assert len(parse_version_samples([version])) == len(parse_version_captures(version.captures)) == 0
    fig4c = render_artifact(degraded, "F4").split("Fig 4c")[1]
    row = next(line for line in fig4c.splitlines() if line.startswith(format_sim(t_version)))
    assert row.rstrip().endswith("- (no data)")
