"""Golden artifact manifests: byte-identity as a first-class artifact.

Every PR so far has claimed "clean worlds byte-identical at seeds 7 and
2014" in its commit message; this module turns that claim into a checked
file.  A manifest records the sha256 of all 22 rendered artifacts (plus the
world summary and the streaming answers, ``STREAM``) for each golden
(seed, scale, faults) cell, together with the ``repro.__version__`` that
produced them.

The diff rule is the regression gate:

* checksums match — pass, regardless of version;
* checksums differ and the recorded version equals the current one — FAIL:
  the world model changed without a version bump (an accidental
  behavioural change, exactly what the manifest exists to catch);
* checksums differ and the version was bumped — the change was declared
  intentional; the caller must regenerate with ``verify-manifest --write``.
"""

import hashlib
import json
from pathlib import Path

__all__ = [
    "DEFAULT_MANIFEST_CELLS",
    "DEFAULT_MANIFEST_PATH",
    "artifact_checksums",
    "build_manifest",
    "diff_manifest",
    "load_manifest",
    "stream_checksum",
    "write_manifest",
]

#: The golden cells: the two seeds every PR's byte-identity claim covers,
#: at the tiny preset scale so CI stays fast.
DEFAULT_MANIFEST_CELLS = (
    {"seed": 7, "scale": 0.0005, "faults": "clean"},
    {"seed": 2014, "scale": 0.0005, "faults": "clean"},
)

DEFAULT_MANIFEST_PATH = Path("MANIFEST_golden.json")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_checksums(world, jobs=1):
    """sha256 of every rendered artifact (F1..F16, T1..T6) plus SUMMARY
    and STREAM.

    ``jobs`` parallelizes the renders through :func:`repro.cli.render_many`;
    the checksums are identical at any value (the render layer's
    request-order merge guarantees it).
    """
    from repro.analysis.context import AnalysisContext
    from repro.cli import ARTIFACTS, render_many

    context = AnalysisContext(world)
    ids = list(ARTIFACTS)
    outputs = render_many(world, ids, jobs=jobs, context=context)
    checksums = {artifact_id: _sha256(text) for artifact_id, text in zip(ids, outputs)}
    checksums["SUMMARY"] = _sha256(world.summary())
    checksums["STREAM"] = stream_checksum(world)
    return checksums


#: Rows per ``ingest_many`` call in the STREAM digest.
STREAM_BATCH = 512


def stream_checksum(world):
    """sha256 of the streaming answers to ``world``'s replay.

    The replay goes through one engine in ``STREAM_BATCH``-row batches
    with a snapshot at the middle batch, then ``close``, every
    ``QUERY_NAMES`` answer and the final snapshot — all as one JSON list
    with sorted keys — so mid-window reads, sketch folds and the ingest
    ledger are all pinned.
    """
    from repro.stream import QUERY_NAMES, StreamEngine, replay_plan, replay_records

    records = replay_records(world)
    engine = StreamEngine.for_world(world, plan=replay_plan(world))
    starts = range(0, len(records), STREAM_BATCH)
    answers = []
    for i, lo in enumerate(starts):
        if i == len(starts) // 2:
            answers.append(engine.snapshot())
        engine.ingest_many(records[lo : lo + STREAM_BATCH])
    engine.close()
    answers.extend(engine.query(name) for name in QUERY_NAMES)
    answers.append(engine.snapshot())
    return _sha256(json.dumps(answers, sort_keys=True))


def _build_cell_world(cell):
    from repro.faults import resolve_fault_profile
    from repro.scenario.world import PaperWorld, WorldParams

    params = WorldParams(
        seed=cell["seed"],
        scale=cell["scale"],
        faults=resolve_fault_profile(cell["faults"]),
    )
    return PaperWorld.build(params=params)


def build_manifest(cells=DEFAULT_MANIFEST_CELLS, builder=None, progress=None, jobs=1):
    """Compute a manifest dict for the given cells."""
    import repro

    builder = builder or _build_cell_world
    say = progress or (lambda message: None)
    worlds = []
    for cell in cells:
        say(f"rendering seed={cell['seed']} scale={cell['scale']:g} faults={cell['faults']}")
        worlds.append(
            {
                "seed": cell["seed"],
                "scale": cell["scale"],
                "faults": cell["faults"],
                "checksums": artifact_checksums(builder(cell), jobs=jobs),
            }
        )
    return {"package_version": repro.__version__, "worlds": worlds}


def load_manifest(path=DEFAULT_MANIFEST_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_manifest(manifest, path=DEFAULT_MANIFEST_PATH):
    from repro.util.io import atomic_write_text

    path = Path(path)
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=False) + "\n")
    return path


def diff_manifest(recorded, current):
    """Compare a recorded manifest against freshly computed checksums.

    Returns ``(ok, lines)``: ``ok`` is True when every checksum matches;
    ``lines`` is a human-readable account either way, including the
    version-gate verdict on mismatch.
    """
    import repro

    lines = []
    mismatches = 0
    recorded_worlds = {
        (w["seed"], w["scale"], w["faults"]): w["checksums"] for w in recorded["worlds"]
    }
    current_worlds = {
        (w["seed"], w["scale"], w["faults"]): w["checksums"] for w in current["worlds"]
    }
    for key, current_sums in current_worlds.items():
        seed, scale, faults = key
        label = f"seed={seed} scale={scale:g} faults={faults}"
        recorded_sums = recorded_worlds.get(key)
        if recorded_sums is None:
            lines.append(f"{label}: not in recorded manifest")
            mismatches += 1
            continue
        changed = sorted(
            artifact_id
            for artifact_id in current_sums
            if recorded_sums.get(artifact_id) != current_sums[artifact_id]
        )
        missing = sorted(set(recorded_sums) - set(current_sums))
        if not changed and not missing:
            lines.append(f"{label}: {len(current_sums)} artifacts byte-identical")
        else:
            mismatches += 1
            if changed:
                lines.append(f"{label}: CHANGED {', '.join(changed)}")
            if missing:
                lines.append(f"{label}: artifacts no longer rendered: {', '.join(missing)}")
    for key in sorted(set(recorded_worlds) - set(current_worlds)):
        seed, scale, faults = key
        lines.append(f"seed={seed} scale={scale:g} faults={faults}: recorded but not checked")

    if mismatches == 0:
        return True, lines

    recorded_version = recorded.get("package_version", "?")
    if recorded_version == repro.__version__:
        lines.append(
            f"FAIL: artifact bytes changed but repro.__version__ is still "
            f"{repro.__version__} — an undeclared world-model change. "
            f"If intentional, bump __version__ and regenerate with "
            f"'python -m repro verify-manifest --write'."
        )
    else:
        lines.append(
            f"FAIL: artifact bytes changed across a version bump "
            f"({recorded_version} -> {repro.__version__}); regenerate the manifest "
            f"with 'python -m repro verify-manifest --write' to accept."
        )
    return False, lines
