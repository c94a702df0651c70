"""The ``batch`` workload: the ``repro render --all`` path, cold, per process.

Each repeat is a fresh interpreter (``python -m perf.batch --job``), so
nothing a previous repeat decoded, forked or memoized is warm.  In it:

1. ``PaperWorld.build(jobs=nproc)`` — timed;
2. a cold ``render_many`` of all 22 artifacts at ``jobs=nproc`` on a fresh
   ``AnalysisContext`` — timed; steps 1 and 2 are the job's latency;
3. in the run's first job and in every traced job, an untimed serial
   pass on another fresh context that decodes the corpus, derives
   victimology, AS concentration and the version report one call at a
   time and renders each artifact alone, so a traced job can attribute
   time to each of those layers.  Leaving it out of the other jobs fits
   one more job into a run.

The parent checks that the pooled artifacts equal the serial ones byte
for byte and that every job rendered the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time

from perf.common import ROOT, WORLD_SEED, Result, child_env, median, nproc
from perf.trace import NULL_TRACER, Tracer

#: The ``default`` preset's scale, the repository's benchmark world: big
#: enough that every build phase and every artifact does real work, small
#: enough that several cold jobs fit in one run.
SCALE = 0.002
MIN_JOBS = 3
JOB_TIMEOUT_S = 150

#: Build phases by the layer that does the work (``world.build_timings``
#: keys); the rest of the build is reported as ``scenario.other_s``.
PHASE_LAYERS = {
    "hosts": "population.hosts_s",
    "victims": "population.victims_s",
    "scanners": "attack.scanners_s",
    "campaign": "attack.campaign_s",
    "darknet": "telescope.darknet_s",
    "onp": "measurement.onp_s",
    "isp": "measurement.isp_s",
}


def run(seed, seconds, trace, scale=None):
    """Run cold jobs until ``seconds`` have passed (at least ``MIN_JOBS``).

    ``seed`` changes nothing here: the world seed is fixed and the job
    has no other input.
    """
    del seed
    scale = SCALE if scale is None else scale
    result = Result()
    jobs = []
    started = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - started < seconds:
        # A traced run alternates traced and untraced jobs so it can
        # report what tracing costs.
        traced = trace and len(jobs) % 2 == 0
        serial = traced or (not trace and not jobs)
        jobs.append(_spawn_job(scale, traced, serial))

    reference = jobs[0]["digest"]
    for index, job in enumerate(jobs):
        if job["serial_s"] is not None:
            result.check(
                job["identical"], f"job {index}: pooled artifacts differ from serial", 22
            )
        result.check(
            job["digest"] == reference, f"job {index}: artifacts differ from job 0's", 22
        )
    result.samples = {
        "latency_ms": [1000.0 * job["latency_s"] for job in jobs],
        "setup_s": [job["setup_s"] for job in jobs],
        "peak_rss_mb": [job["rss_mb"] for job in jobs],
    }
    result.details = {
        "build_s": [job["build_s"] for job in jobs],
        "artifacts_pooled_s": [job["pooled_s"] for job in jobs],
        "artifacts_s": [job["serial_s"] for job in jobs if job["serial_s"] is not None],
    }
    if trace:
        result.spans = [
            {"job": index, **span} for index, job in enumerate(jobs) for span in job["spans"]
        ]
        result.layers = _layers([job for job in jobs if job["traced"]])
        untraced = [job["latency_s"] for job in jobs if not job["traced"]]
        traced_latency = [job["latency_s"] for job in jobs if job["traced"]]
        result.layers["trace.overhead"] = median(traced_latency) / median(untraced)
    return result


def _spawn_job(scale, traced, serial):
    command = [sys.executable, "-m", "perf.batch", "--job", str(scale)]
    if serial:
        command.append("--serial")
    if traced:
        command.append("--traced")
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - started
        if ready.strip() != "ready":
            raise RuntimeError(f"batch job failed to start (said {ready!r})")
        output = process.stdout.read()
        process.wait(timeout=JOB_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"batch job exited {process.returncode}")
    job = json.loads(output.strip().splitlines()[-1])
    job["setup_s"] = setup_s
    job["traced"] = traced
    return job


def _layers(jobs):
    """Per-layer medians over the traced jobs."""

    def med(value):
        return median([value(job) for job in jobs])

    layers = {
        name: med(lambda job, phase=phase: job["build_timings"].get(phase, 0.0))
        for phase, name in PHASE_LAYERS.items()
    }
    layers["scenario.other_s"] = med(
        lambda job: job["build_timings"]["total"]
        - sum(job["build_timings"].get(phase, 0.0) for phase in PHASE_LAYERS)
    )
    for name in jobs[0]["pool"]:
        layers[name] = med(lambda job, name=name: float(job["pool"][name]))
    layers["analysis.parse_calls"] = med(lambda job: job["parse_calls"])
    # Spans named after the layer they time: ``analysis.*`` and
    # ``reporting.render.<ID>`` become ``<span>_s``.
    for span in jobs[0]["self_s"]:
        if span.startswith(("analysis.", "reporting.render.")):
            layers[f"{span}_s"] = med(lambda job, span=span: job["self_s"][span])
    layers["reporting.render_s"] = med(
        lambda job: sum(
            seconds for span, seconds in job["self_s"].items()
            if span.startswith("reporting.render.")
        )
    )
    return layers


# -- the job, in its own interpreter ----------------------------------------


def _job(scale, traced, serial):
    from repro.analysis.context import AnalysisContext
    from repro.cli import ARTIFACTS, render_artifact, render_many
    from repro.scenario import PaperWorld

    print("ready", flush=True)
    tracer = Tracer() if traced else NULL_TRACER
    ids = list(ARTIFACTS)
    workers = nproc()

    started = time.perf_counter()
    with tracer.span("scenario.build"):
        world = PaperWorld.build(seed=WORLD_SEED, scale=scale, jobs=workers)
    built = time.perf_counter()
    render_stats = {}
    with tracer.span("reporting.render_many"):
        pooled = render_many(
            world, ids, jobs=workers, context=AnalysisContext(world, jobs=workers),
            stats=render_stats,
        )
    done = time.perf_counter()
    record = {
        "latency_s": done - started,
        "build_s": built - started,
        "pooled_s": done - built,
        "serial_s": None,
        "build_timings": world.build_timings,
        "pool": _pool_counters(world, render_stats),
    }

    if serial:
        context = AnalysisContext(world)
        texts = []
        with tracer.span("serial"):
            with tracer.span("analysis.decode"):
                context.warm()
            with tracer.span("analysis.victimology"):
                context.victim_report()
            with tracer.span("analysis.concentration"):
                context.concentration()
            with tracer.span("analysis.versions"):
                context.version_report()
            for artifact_id in ids:
                with tracer.span(f"reporting.render.{artifact_id}"):
                    texts.append(render_artifact(world, artifact_id, context=context))
        record["serial_s"] = time.perf_counter() - done
        record["identical"] = pooled == texts
        record["parse_calls"] = context.parse_calls

    digest = hashlib.sha256()
    for artifact_id, text in zip(ids, pooled):
        digest.update(f"{artifact_id}\0{text}\0".encode())
    record["digest"] = digest.hexdigest()
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    own = tracer.self_times()
    record["self_s"] = {}
    for span in tracer.spans:
        record["self_s"][span.name] = record["self_s"].get(span.name, 0.0) + own[span.id]
    record["spans"] = tracer.records()
    print(json.dumps(record), flush=True)


def _pool_counters(world, render_stats):
    """Shard-pool busy time and engagement, by per-layer metric name, from
    the counters the build and ``render_many`` return."""
    engaged = {phase: stat for phase, stat in world.shard_stats.items() if stat["engaged"]}
    busy = sum(stat["task_seconds"]["sum"] for stat in engaged.values())
    capacity = sum(
        stat["workers"] * world.build_timings.get(phase, 0.0) for phase, stat in engaged.items()
    )
    retries = sum(stat["retries"] for stat in world.shard_stats.values())
    return {
        "util.pool.build_busy_s": busy,
        "util.pool.build_efficiency": busy / capacity if capacity else 0.0,
        "util.pool.build_engaged_phases": len(engaged),
        "util.pool.render_engaged": int(render_stats["pool_engaged"]),
        "util.pool.retries": retries + render_stats["supervision"]["retries"],
    }


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--job":
        _job(float(sys.argv[2]), "--traced" in sys.argv[3:], "--serial" in sys.argv[3:])
    else:
        sys.exit("usage: python -m perf.batch --job SCALE [--serial] [--traced]")
