"""Paths, statistics and the world cache shared by the benchmark workloads.

The benchmark imports the program from the ``src/`` tree next to it and
keeps everything it writes under ``.perfcache/`` at the root of the
checkout: built worlds, byte-code and trace files.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfcache"

#: Every workload's world uses this seed; ``--seed`` seeds the load
#: (arrival times, query order), never the world, so runs with different
#: seeds measure the same program inputs.
WORLD_SEED = 2014


def nproc():
    """CPUs this process may run on: the cap on workers and connections."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def child_env():
    """Environment for the program's processes: this checkout's source,
    byte-code kept out of the tree, and no ``REPRO_*`` switches (parse or
    world caches, chaos injection) inherited from the caller."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    env["PYTHONPYCACHEPREFIX"] = str(CACHE / "pycache")
    return env


# -- statistics -------------------------------------------------------------


def percentile(values, q):
    """Linear-interpolation percentile (``q`` in [0, 100]); an ``inf``
    sample (a failed request) is never interpolated into a finite one."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    if fraction == 0.0 or ordered[lower] == ordered[upper]:
        return ordered[lower]
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def summarize(values):
    """``(median, q1, q3, n)`` of a sample, quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("summary of no values")
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def median(values):
    return summarize(values)[0]


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass
class Result:
    """What one workload run measured and checked.

    ``samples`` holds every end-to-end sample by metric name (the run
    reports their median); ``layers`` holds the per-layer values and
    ``spans`` the span records of a traced run; ``details`` are extra
    samples printed for reading only.
    """

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def check(self, ok, problem, weight=1):
        """Count ``weight`` attempted operations, failed unless ``ok``."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.problems.append(problem)
        return ok


# -- the world cache --------------------------------------------------------


def source_digest():
    """SHA-256 over every ``src/repro/**/*.py`` path and its bytes, so one
    source tree never measures a world another tree built."""
    digest = hashlib.sha256()
    base = SRC / "repro"
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def world_params(scale, faults):
    from repro.faults import resolve_fault_profile
    from repro.scenario import WorldParams

    return WorldParams(seed=WORLD_SEED, scale=scale, faults=resolve_fault_profile(faults))


def world_cache_path(params):
    """The cached world file for ``params``, built on first use."""
    from repro.scenario.cache import build_world_cached, cached_world_path

    directory = str(CACHE / "worlds" / source_digest()[:16])
    path = cached_world_path(params, directory)
    if not os.path.exists(path):
        print(f"(building the benchmark world {os.path.basename(path)})", file=sys.stderr)
        build_world_cached(params, cache_dir=directory, jobs=nproc())
    return path
