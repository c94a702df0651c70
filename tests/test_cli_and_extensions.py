"""Tests for the CLI, ASCII figures, presets, summary, and §4.4 validation."""

import pickle

import pytest

from repro.cli import ARTIFACTS, build_or_load_world, main, render_artifact
from repro.reporting.figures import ascii_bars, ascii_chart, sparkline
from repro.scenario.presets import PRESETS, resolve_preset


# -- presets ---------------------------------------------------------------------


def test_presets_resolve():
    assert resolve_preset("tiny").scale == 0.0005
    assert resolve_preset("default").scale == 0.002
    with pytest.raises(KeyError):
        resolve_preset("enormous")


def test_presets_ordered_by_scale():
    scales = [PRESETS[name].scale for name in ("tiny", "small", "default", "large", "xl")]
    assert scales == sorted(scales)


# -- ascii figures ------------------------------------------------------------------


def test_sparkline_basic():
    line = sparkline([0, 1, 5, 10])
    assert len(line) == 4
    assert line[0] == " "
    assert line[-1] == "@"


def test_sparkline_downsamples():
    line = sparkline(range(1000), width=40)
    assert len(line) == 40


def test_sparkline_empty_and_zero():
    assert sparkline([]) == ""
    assert sparkline([0, 0, 0]) == "   "


def test_ascii_chart_shape():
    text = ascii_chart([(i, i * i) for i in range(1, 50)], height=8, width=30, title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert len(lines) == 10  # title + 8 rows + axis
    assert "*" in text


def test_ascii_chart_log():
    text = ascii_chart([(0, 1e-5), (1, 1e-2)], log=True)
    assert "*" in text


def test_ascii_chart_empty():
    assert ascii_chart([]) == "(empty series)"


def test_ascii_bars():
    text = ascii_bars([("a", 1.0), ("bb", 0.5)], width=10)
    lines = text.splitlines()
    assert lines[0].count("#") == 10
    assert lines[1].count("#") == 5
    assert ascii_bars([]) == "(no data)"


# -- artifact registry ------------------------------------------------------------------


def test_artifact_registry_complete():
    assert {f"F{i}" for i in range(1, 17)} <= set(ARTIFACTS)
    assert {f"T{i}" for i in range(1, 7)} <= set(ARTIFACTS)


def test_render_unknown_artifact(world):
    with pytest.raises(KeyError):
        render_artifact(world, "F99")


@pytest.mark.parametrize("artifact_id", sorted(ARTIFACTS))
def test_every_artifact_renders(world, artifact_id):
    text = render_artifact(world, artifact_id)
    assert isinstance(text, str)
    assert len(text) > 20


def test_render_case_insensitive(world):
    assert render_artifact(world, "f2") == render_artifact(world, "F2")


# -- summary + validation ------------------------------------------------------------------


def test_world_summary(world):
    text = world.summary()
    assert "Amplifier pool" in text
    assert "remediated" in text
    assert "BAF" in text
    assert "437K" in text  # paper comparisons included


def test_ovh_validation(world, parsed_monlist, victim_report):
    from repro.analysis import as_concentration
    from repro.analysis.validation import validate_ovh_event

    concentration = as_concentration(victim_report, world.table)
    ovh = world.registry.special["HOSTING-FR-1"]
    result = validate_ovh_event(
        world.attacks, parsed_monlist, concentration, world.table, ovh.asn
    )
    assert result.event_attacks >= 3
    assert result.disclosed_asns > 0
    # Nearly all event amplifier ASes appear in the ONP data (paper: 99.5%).
    assert result.asn_overlap_fraction > 0.8
    assert 0.0 <= result.victim_packet_share <= 1.0
    assert result.target_as_rank >= 1


def test_ovh_validation_empty():
    from repro.analysis.concentration import ConcentrationReport
    from repro.analysis.validation import validate_ovh_event

    empty = ConcentrationReport(victim_as_packets={}, amplifier_as_packets={})

    class FakeTable:
        def asn_of(self, ip):
            return None

    result = validate_ovh_event([], [], empty, FakeTable(), target_asn=1)
    assert result.event_attacks == 0
    assert result.asn_overlap_fraction == 0.0
    assert result.onp_asns == 0
    assert result.target_as_rank == 0
    assert result.degraded


def test_ovh_validation_empty_onp_corpus(world, victim_report):
    """An ONP corpus eaten by sample outages (reachable under hostile
    faults): the disclosure side exists, the measurement side is empty, and
    every figure is well-defined rather than a crash or a division."""
    from repro.analysis import as_concentration
    from repro.analysis.validation import validate_ovh_event

    concentration = as_concentration(victim_report, world.table)
    ovh = world.registry.special["HOSTING-FR-1"]
    result = validate_ovh_event(world.attacks, [], concentration, world.table, ovh.asn)
    assert result.disclosed_asns > 0
    assert result.onp_asns == 0
    assert result.overlapping_asns == 0
    assert result.asn_overlap_fraction == 0.0
    assert result.degraded


def test_ovh_validation_target_as_absent(world, parsed_monlist, victim_report):
    """A target AS that never shows up in the victimology gets rank 0 (not
    None, not a crash) and marks the result degraded."""
    from repro.analysis import as_concentration
    from repro.analysis.validation import validate_ovh_event

    concentration = as_concentration(victim_report, world.table)
    absent_asn = max(concentration.victim_as_packets, default=0) + 10_000
    result = validate_ovh_event(
        world.attacks, parsed_monlist, concentration, world.table, absent_asn
    )
    assert result.event_attacks == 0
    assert result.target_as_rank == 0
    assert result.degraded


# -- CLI plumbing ------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "F10" in out and "T4" in out and "preset" in out.lower()


def test_world_pickle_round_trip(world, tmp_path):
    """A bare pickle packs the pool too and gives back the same world."""
    from tests.test_packed_world import assert_same_population

    path = tmp_path / "world.pkl"
    with open(path, "wb") as handle:
        pickle.dump(world, handle)
    with open(path, "rb") as handle:
        loaded = pickle.load(handle)
    assert len(loaded.attacks) == len(world.attacks)
    assert loaded.params.seed == world.params.seed
    assert len(loaded.onp.monlist_samples) == 15
    assert_same_population(world, loaded)
    assert loaded.summary() == world.summary()


def test_build_or_load_world_uses_cache(world, tmp_path):
    from repro.scenario.cache import save_world

    path = tmp_path / "cache.pkl"
    save_world(world, str(path))

    class Args:
        cache = str(path)
        scale = world.params.scale
        preset = "tiny"
        seed = world.params.seed
        quiet = True

    loaded = build_or_load_world(Args())
    # The cached world matches the requested params, so it is served as-is.
    assert loaded.params.seed == world.params.seed
    assert loaded.params.scale == world.params.scale
    assert loaded.summary() == world.summary()


def test_build_or_load_world_rebuilds_stale_cache(world, tmp_path, capsys):
    """A cache for a *different* world (here: a legacy bare pickle carrying
    no provenance) must not be served; the requested world is rebuilt and
    the stale entry overwritten."""
    path = tmp_path / "cache.pkl"
    with open(path, "wb") as handle:
        pickle.dump(world, handle)

    class Args:
        cache = str(path)
        scale = 0.0002
        preset = "tiny"
        seed = 1
        quiet = True

    loaded = build_or_load_world(Args())
    assert loaded.params.seed == 1
    assert loaded.params.scale == 0.0002
    assert "stale world cache" in capsys.readouterr().err
    # The rebuilt world replaced the stale entry with a validated one.
    loaded_again = build_or_load_world(Args())
    assert loaded_again.params.seed == 1
    assert loaded_again.summary() == loaded.summary()


# -- CLI error hygiene ---------------------------------------------------------


def test_main_unknown_artifact_exits_2(capsys):
    """Unknown artifact ids fail fast (before any world build) with a
    one-line error and exit code 2, not a traceback."""
    assert main(["figure", "F99", "--preset", "tiny", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "unknown artifact id" in err
    assert "F99" in err and "F1" in err
    assert main(["table", "T9", "nope", "--preset", "tiny", "--quiet"]) == 2
    assert "'T9', 'nope'" in capsys.readouterr().err


def test_main_unreadable_cache_exits_2(tmp_path, capsys):
    """A --cache path that cannot be a cache file (a directory) is a
    user-input error: one line on stderr, exit 2."""
    code = main(["summary", "--preset", "tiny", "--quiet", "--cache", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "is a directory" in err


def test_unwritable_cache_warns_and_continues(tmp_path, capsys):
    """save_world failing must not kill the render: warn and return the
    freshly-built world."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")

    class Args:
        cache = str(blocker / "nested" / "world.pkl")  # unwritable: under a file
        scale = 0.0002
        preset = "tiny"
        seed = 3
        quiet = True

    loaded = build_or_load_world(Args())
    assert loaded.params.seed == 3
    assert "could not write world cache" in capsys.readouterr().err


def test_quality_command_clean_world(capsys):
    """python -m repro quality on a clean tiny world: exit 0, empty log."""
    assert main(["quality", "--preset", "tiny", "--seed", "5", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "clean apparatus" in out
    assert "RECONCILED" in out


def test_quality_command_hostile_world(capsys):
    """--faults hostile: nonzero injected counts that reconcile (exit 0)."""
    assert (
        main(["quality", "--preset", "tiny", "--seed", "5", "--quiet", "--faults", "hostile"]) == 0
    )
    out = capsys.readouterr().out
    assert "hostile" in out
    assert "Injection log" in out and "clean apparatus" not in out
    assert "RECONCILED" in out and "FAILED" not in out
