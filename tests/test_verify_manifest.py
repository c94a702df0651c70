"""Tests for the golden-manifest module: checksum stability, tamper
detection, and the version gate."""

import copy
import json

import pytest

import repro
from repro.verify import (
    artifact_checksums,
    build_manifest,
    diff_manifest,
    load_manifest,
    write_manifest,
)


@pytest.fixture(scope="module")
def manifest(world):
    cells = ({"seed": 42, "scale": 0.001, "faults": "clean"},)
    return build_manifest(cells, builder=lambda cell: world)


def test_checksums_cover_every_artifact_plus_summary(manifest):
    from repro.cli import ARTIFACTS

    [entry] = manifest["worlds"]
    assert set(entry["checksums"]) == set(ARTIFACTS) | {"SUMMARY", "STREAM"}
    assert all(len(v) == 64 for v in entry["checksums"].values())
    assert manifest["package_version"] == repro.__version__


def test_checksums_deterministic(manifest, world):
    assert artifact_checksums(world) == manifest["worlds"][0]["checksums"]


def test_diff_identical_manifests_ok(manifest):
    ok, lines = diff_manifest(manifest, manifest)
    assert ok
    assert any("byte-identical" in line for line in lines)


def test_diff_tamper_without_version_bump_fails(manifest):
    tampered = copy.deepcopy(manifest)
    tampered["worlds"][0]["checksums"]["F3"] = "0" * 64
    ok, lines = diff_manifest(tampered, manifest)
    assert not ok
    text = "\n".join(lines)
    assert "CHANGED F3" in text
    assert "__version__ is still" in text  # undeclared change: the hard failure


def test_changed_stream_answer_without_version_bump_fails(manifest, world, monkeypatch):
    """A streaming answer that moves — here the darknet window summary —
    changes the STREAM checksum, and without a version bump the diff is
    the hard failure."""
    from repro.stream import ingest
    from repro.verify.manifest import stream_checksum

    monkeypatch.setitem(
        ingest._FINALIZERS, "darknet", lambda state, records: {"scanners": len(state) + 1}
    )
    current = copy.deepcopy(manifest)
    current["worlds"][0]["checksums"]["STREAM"] = stream_checksum(world)
    ok, lines = diff_manifest(manifest, current)
    assert not ok
    text = "\n".join(lines)
    assert "CHANGED STREAM" in text
    assert "__version__ is still" in text


def test_diff_tamper_across_version_bump_requests_regeneration(manifest):
    tampered = copy.deepcopy(manifest)
    tampered["package_version"] = "0.0.0-previous"
    tampered["worlds"][0]["checksums"]["T1"] = "f" * 64
    ok, lines = diff_manifest(tampered, manifest)
    assert not ok
    text = "\n".join(lines)
    assert "version bump" in text
    assert "verify-manifest --write" in text


def test_diff_reports_missing_and_extra_worlds(manifest):
    recorded = copy.deepcopy(manifest)
    recorded["worlds"][0]["seed"] = 43  # the recorded golden world moved
    ok, lines = diff_manifest(recorded, manifest)
    assert not ok
    text = "\n".join(lines)
    assert "not in recorded manifest" in text
    assert "recorded but not checked" in text


def test_write_load_roundtrip(manifest, tmp_path):
    path = write_manifest(manifest, path=tmp_path / "m.json")
    assert load_manifest(path) == manifest
    assert json.loads(path.read_text())["package_version"] == repro.__version__


def test_repo_manifest_exists_and_names_the_golden_seeds():
    from pathlib import Path

    recorded = load_manifest(Path(__file__).resolve().parent.parent / "MANIFEST_golden.json")
    cells = {(w["seed"], w["scale"], w["faults"]) for w in recorded["worlds"]}
    assert cells == {(7, 0.0005, "clean"), (2014, 0.0005, "clean")}
    assert recorded["package_version"] == repro.__version__
