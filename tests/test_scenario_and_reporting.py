"""Integration tests for the scenario layer and the text reporting."""

import pytest

from repro.analysis import amplifier_counts
from repro.analysis.event_columns import columns_for_sample
from repro.reporting import (
    render_monlist_table,
    render_series,
    render_table,
    render_table1,
    render_table2,
    render_table4,
    render_table5,
    render_table6,
)
from repro.analysis import top_amplifier_table, top_victim_table
from repro.population import OS_ALL_NTP, OS_AMPLIFIERS, OS_MEGA
from repro.util import date_to_sim


def test_world_has_all_five_datasets(world):
    assert world.arbor.daily
    assert world.onp.monlist_samples and world.onp.version_samples
    assert world.darknet.monthly_packets_per_slash24()
    assert world.darknet_v6.monthly_packets()
    assert world.isp.sites


def test_world_scale_consistency(world):
    jan10 = date_to_sim(2014, 1, 10)
    alive = len(world.hosts.monlist_alive(jan10))
    observed = len(world.onp.monlist_samples[0])
    # The first scan sees most of the alive, v2-answering pool.
    assert 0.4 * alive < observed <= alive


def test_analysis_never_touches_ground_truth(world):
    """The parsed dataset contains only information a real prober gets:
    reconstructing tables must not require the host objects."""
    sample = world.onp.monlist_samples[3]
    (parsed,) = columns_for_sample(sample).sample_views()
    for table in parsed.tables[:20]:
        assert isinstance(table.amplifier_ip, int)
        assert table.entries is not None


def test_render_table_alignment():
    text = render_table(["a", "bb"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert all(len(line) == len(lines[0]) or line for line in lines)


def test_render_table1(world, parsed_monlist):
    amp_rows = amplifier_counts(parsed_monlist, world.table, world.pbl)
    victim_rows = [
        {
            "ips": 10,
            "blocks": 5,
            "asns": 3,
            "end_host_fraction": 0.4,
            "ips_per_block": 2.0,
        }
    ] * len(amp_rows)
    text = render_table1(amp_rows, victim_rows)
    assert "Table 1" in text
    assert "2014-01-10" in text and "2014-04-18" in text


def test_render_table2():
    text = render_table2(OS_MEGA, OS_AMPLIFIERS, OS_ALL_NTP)
    assert "cisco" in text and "junos" in text and "linux" in text


def test_render_table4():
    text = render_table4([(80, 0.362), (123, 0.238), (25565, 0.021)])
    assert "80" in text
    assert "Minecraft (g)" in text
    assert "NTP server port" in text


def test_render_table5_and_6(world):
    merit = world.isp.sites["merit"]
    t5 = render_table5("Merit", top_amplifier_table(merit))
    assert "Table 5" in t5 and "BAF" in t5
    t6 = render_table6("Merit", top_victim_table(merit, world.table, world.geo))
    assert "Table 6" in t6 and "Country" in t6


def test_render_monlist_table(world):
    from repro.analysis import reconstruct_table

    capture = world.onp.monlist_samples[0].captures[0]
    table = reconstruct_table(capture)
    text = render_monlist_table(table.entries[:5])
    assert "Inter-arrival" in text


def test_render_series():
    text = render_series([("2014-01-10", 0.5), ("2014-01-17", 0.25)], value_label="frac")
    assert "2014-01-10" in text and "0.5" in text
