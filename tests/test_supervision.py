"""The supervision layer: retry/timeout/crash handling, chaos injection,
checkpointed resumable builds, spill-file integrity, and atomic writes.

The contract under test is the robustness analogue of the byte-identity
contract: a pooled run under hostile conditions (killed workers, hung
tasks, injected I/O failures, a SIGKILLed build) must either produce
exactly the serial answer or raise the genuine error — never a silently
truncated or subtly different result.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro.scenario.checkpoint as checkpoint_mod
import repro.scenario.world as world_mod
import repro.util.pool as pool_mod
from repro.scenario import PaperWorld, WorldParams
from repro.scenario.checkpoint import BuildCheckpoint
from repro.util.chaos import (
    ChaosMonkey,
    ChaosSpecError,
    chaos_from_env,
    parse_chaos_spec,
)
from repro.util.io import atomic_write_stream, atomic_write_text
from repro.util.pool import ShardRunner, fork_pool_gate

from tests.test_build_shards import _fingerprint


@pytest.fixture
def eight_cpus(monkeypatch):
    """Engage pools on the one-CPU CI container (fork works; only the
    gate refuses)."""
    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 8)


# -- supervised pool: fault classes --------------------------------------------


def _marker(directory, index):
    return os.path.join(directory, f"attempted-{index}")


def test_worker_crash_is_retried(eight_cpus, tmp_path):
    """A worker dying mid-task (hard exit) is seen as EOF, the worker is
    replaced, and the task is retried to the correct answer."""
    directory = str(tmp_path)

    def crash_once(ctx, i):
        if i == 3 and not os.path.exists(_marker(ctx, i)):
            open(_marker(ctx, i), "w").close()
            os._exit(13)
        return i * i

    runner = ShardRunner(2, backoff=0.01)
    assert runner.map("t", crash_once, directory, 6) == [i * i for i in range(6)]
    stat = runner.stats["t"]
    assert stat["worker_crashes"] >= 1
    assert stat["retries"] >= 1
    assert stat["task_source"][3] in ("pooled", "fallback")
    assert any("worker died" in line for line in stat["errors"])


def test_hung_task_times_out_and_retries(eight_cpus, tmp_path):
    """A task past ``task_timeout`` gets its worker SIGKILLed and is
    retried; the retry (marker present) completes fast."""
    directory = str(tmp_path)

    def hang_once(ctx, i):
        if i == 1 and not os.path.exists(_marker(ctx, i)):
            open(_marker(ctx, i), "w").close()
            time.sleep(60)
        return -i

    runner = ShardRunner(2, task_timeout=0.5, backoff=0.01)
    started = time.monotonic()
    assert runner.map("t", hang_once, directory, 4) == [0, -1, -2, -3]
    assert time.monotonic() - started < 30  # nobody waited out the sleep
    stat = runner.stats["t"]
    assert stat["timeouts"] >= 1
    assert any("timed out" in line for line in stat["errors"])


def test_in_task_exception_is_retried(eight_cpus, tmp_path):
    """A transient in-task exception is a counted retry, distinct from a
    worker crash."""
    directory = str(tmp_path)

    def flaky(ctx, i):
        if i == 2 and not os.path.exists(_marker(ctx, i)):
            open(_marker(ctx, i), "w").close()
            raise OSError("transient")
        return i + 10

    runner = ShardRunner(2, backoff=0.01)
    assert runner.map("t", flaky, directory, 5) == [10, 11, 12, 13, 14]
    stat = runner.stats["t"]
    assert stat["task_errors"] == 1
    assert stat["worker_crashes"] == 0
    assert stat["retries"] == 1


def test_pool_resistant_failure_falls_back_to_serial(eight_cpus):
    """A task that fails in *every* pooled attempt (here: whenever it
    runs outside the parent process) is re-executed serially in-process,
    so the map still returns the right answer."""
    parent = os.getpid()

    def pool_poison(ctx, i):
        if i == 0 and os.getpid() != ctx:
            raise RuntimeError("only works in the parent")
        return i * 7

    runner = ShardRunner(2, retries=1, backoff=0.01)
    assert runner.map("t", pool_poison, parent, 4) == [0, 7, 14, 21]
    stat = runner.stats["t"]
    assert stat["serial_fallbacks"] == 1
    assert stat["task_source"][0] == "fallback"
    assert stat["task_errors"] == 2  # initial attempt + 1 retry, both pooled


def test_counters_zero_on_clean_run(eight_cpus):
    runner = ShardRunner(3)
    runner.map("t", lambda ctx, i: i, None, 9)
    stat = runner.stats["t"]
    for key in ("retries", "timeouts", "worker_crashes", "task_errors", "serial_fallbacks"):
        assert stat[key] == 0, key
    assert stat["errors"] == []
    assert stat["task_source"] == ["pooled"] * 9


# -- clean shutdown: no orphaned workers ---------------------------------------

_INTERRUPT_SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    import repro.util.pool as pool_mod
    pool_mod.available_cpus = lambda: 8
    from repro.util.pool import ShardRunner

    marker_dir = sys.argv[1]

    def task(ctx, i):
        with open(os.path.join(ctx, f"task-{i}-{os.getpid()}"), "w"):
            pass
        time.sleep(120)

    try:
        ShardRunner(4).map("t", task, marker_dir, 8)
    except BaseException as exc:
        print(f"UNWOUND {type(exc).__name__}", flush=True)
        raise
    """
)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupt_leaves_no_orphan_workers(tmp_path, signum):
    """SIGINT/SIGTERM mid-pool unwinds through the supervisor's cleanup:
    the parent exits promptly and every forked worker is dead."""
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPT_SCRIPT, str(marker_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and len(os.listdir(marker_dir)) < 2:
            time.sleep(0.05)
        assert len(os.listdir(marker_dir)) >= 2, "pool never started its tasks"
        proc.send_signal(signum)
        stdout, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert "UNWOUND KeyboardInterrupt" in stdout
    worker_pids = {int(name.split("-")[-1]) for name in os.listdir(marker_dir)}
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        alive = [pid for pid in worker_pids if _pid_exists(pid)]
        if not alive:
            break
        time.sleep(0.1)
    assert not alive, f"orphaned workers: {alive}"


def _pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# -- chaos harness -------------------------------------------------------------


def test_parse_chaos_spec():
    assert parse_chaos_spec("kill:0.2,hang:0.1,enospc:0.05") == {
        "kill": 0.2,
        "hang": 0.1,
        "enospc": 0.05,
    }
    assert parse_chaos_spec(" kill:1.0 ") == {"kill": 1.0}
    for bad in ("kil:0.3", "kill", "kill:x", "kill:1.5", "kill:-0.1", "", " , "):
        with pytest.raises(ChaosSpecError):
            parse_chaos_spec(bad)


def test_chaos_decisions_are_deterministic():
    a = ChaosMonkey({"kill": 0.3, "hang": 0.2, "enospc": 0.3}, seed=7)
    b = ChaosMonkey({"kill": 0.3, "hang": 0.2, "enospc": 0.3}, seed=7)
    decisions = [a.decide("phase", i, t) for i in range(50) for t in (1, 2, 3)]
    assert decisions == [b.decide("phase", i, t) for i in range(50) for t in (1, 2, 3)]
    assert any(d is not None for d in decisions)
    assert any(d is None for d in decisions)
    other = ChaosMonkey({"kill": 0.3, "hang": 0.2, "enospc": 0.3}, seed=8)
    assert decisions != [other.decide("phase", i, t) for i in range(50) for t in (1, 2, 3)]


def test_chaos_from_env(monkeypatch):
    assert chaos_from_env({}) is None
    assert chaos_from_env({"REPRO_CHAOS": "  "}) is None
    monkey = chaos_from_env(
        {"REPRO_CHAOS": "kill:0.5", "REPRO_CHAOS_SEED": "9", "REPRO_CHAOS_HANG_S": "0.25"}
    )
    assert monkey.spec == {"kill": 0.5} and monkey.seed == 9
    assert monkey.hang_seconds == 0.25
    with pytest.raises(ChaosSpecError):
        chaos_from_env({"REPRO_CHAOS": "kill:0.5", "REPRO_CHAOS_SEED": "seven"})
    with pytest.raises(ChaosSpecError):
        chaos_from_env({"REPRO_CHAOS": "kill:0.5", "REPRO_CHAOS_HANG_S": "later"})


def test_chaos_run_still_produces_correct_answers(eight_cpus, monkeypatch):
    """Under heavy injected fault rates the supervised map returns
    exactly the clean answer — the acceptance bar: zero wrong answers."""
    monkeypatch.setenv("REPRO_CHAOS", "kill:0.35,hang:0.25,enospc:0.35")
    monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
    monkeypatch.setenv("REPRO_CHAOS_HANG_S", "0.05")
    runner = ShardRunner(3, task_timeout=5.0, retries=2, backoff=0.01)
    assert runner.map("t", lambda ctx, i: i * 3, None, 16) == [i * 3 for i in range(16)]
    stat = runner.stats["t"]
    injected = stat["worker_crashes"] + stat["timeouts"] + stat["task_errors"]
    assert injected > 0, "chaos at these rates must actually inject"


def test_chaos_never_reaches_the_serial_path(monkeypatch):
    """jobs=1 never forks, so REPRO_CHAOS must be inert there."""
    monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
    runner = ShardRunner(1)
    assert runner.map("t", lambda ctx, i: i, None, 4) == [0, 1, 2, 3]
    assert runner.stats["t"]["task_source"] == ["serial"] * 4


def test_malformed_chaos_spec_fails_loudly_in_parent(eight_cpus, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "kil:0.3")
    with pytest.raises(ChaosSpecError):
        ShardRunner(2).map("t", lambda ctx, i: i, None, 4)


# -- checkpointed resumable builds ---------------------------------------------

CKPT_PARAMS = dict(seed=7, scale=0.0002)


def _boom_phases(crash_phase, armed_flag):
    """The build phase list with ``crash_phase`` failing while the flag
    file exists (a deterministic stand-in for dying mid-build)."""
    phases = []
    for name, fn in world_mod._BUILD_PHASES:
        if name == crash_phase:

            def wrapped(env, state, _fn=fn):
                if os.path.exists(armed_flag):
                    raise RuntimeError("injected mid-build crash")
                return _fn(env, state)

            phases.append((name, wrapped))
        else:
            phases.append((name, fn))
    return tuple(phases)


def test_interrupted_build_resumes_byte_identically(tmp_path, monkeypatch):
    params = WorldParams(**CKPT_PARAMS)
    baseline = PaperWorld.build(params=params, quiet=True)

    armed = str(tmp_path / "armed")
    open(armed, "w").close()
    ckpt_dir = str(tmp_path / "ckpt")
    monkeypatch.setattr(world_mod, "_BUILD_PHASES", _boom_phases("campaign", armed))
    with pytest.raises(RuntimeError, match="injected mid-build crash"):
        PaperWorld.build(params=params, quiet=True, checkpoint_dir=ckpt_dir)
    assert len(os.listdir(ckpt_dir)) == 1  # the crash left a checkpoint behind

    os.unlink(armed)  # "fix the machine" and re-run the same command
    resumed = PaperWorld.build(params=params, quiet=True, checkpoint_dir=ckpt_dir)
    stats = resumed.checkpoint_stats
    assert stats["resumed"] is True
    assert stats["phases_loaded"] == ["registry", "hosts", "victims", "scanners"]
    assert _fingerprint(resumed) == _fingerprint(baseline)
    # A completed build clears its checkpoint: the world cache, not a
    # stale checkpoint, is the reuse mechanism.
    assert stats.get("cleared") is True
    assert os.listdir(ckpt_dir) == []


def test_completed_build_leaves_no_checkpoint(tmp_path):
    params = WorldParams(**CKPT_PARAMS)
    world = PaperWorld.build(params=params, quiet=True, checkpoint_dir=str(tmp_path))
    assert world.checkpoint_stats["resumed"] is False
    assert world.checkpoint_stats["saves"] == len(world_mod._BUILD_PHASES)
    assert [p for p in os.listdir(tmp_path) if p.startswith("checkpoint-")] == []


@pytest.mark.parametrize(
    "mutate, reason_fragment",
    [
        (lambda p: {**p, "version": "0.0.1"}, "written by repro '0.0.1'"),
        (lambda p: {**p, "format": 99}, "envelope format"),
        (lambda p: {**p, "format": 3}, "envelope format 3"),
        (lambda p: {**p, "params": WorldParams(seed=8, scale=0.0002)}, "built for"),
        (lambda p: {**p, "phases": ["hosts", "registry"]}, "does not prefix"),
        (lambda p: {"state": p["state"]}, "envelope format"),
    ],
)
def test_stale_checkpoint_is_a_miss_never_a_wrong_world(tmp_path, mutate, reason_fragment):
    """Every envelope mismatch — version, format, params, phase order —
    restarts the build from scratch instead of resuming wrongly."""
    params = WorldParams(**CKPT_PARAMS)
    ckpt = BuildCheckpoint(str(tmp_path), params)
    _write_checkpoint(ckpt.path, mutate(_good_checkpoint(params)))
    assert ckpt.load() is None
    assert reason_fragment in ckpt.stats["reason"]
    assert ckpt.stats["resumed"] is False


def _good_checkpoint(params):
    return {
        "format": checkpoint_mod._CHECKPOINT_FORMAT,
        "version": __import__("repro").__version__,
        "params": params,
        "phases": ["registry"],
        "state": {"timings": {}},
    }


def _write_checkpoint(path, payload):
    """A checkpoint file as ``BuildCheckpoint.save`` lays it out: the
    layout prefix, the envelope's pickle, then the state's."""
    envelope = dict(payload)
    state = envelope.pop("state")
    with open(path, "wb") as handle:
        handle.write(checkpoint_mod._CHECKPOINT_LAYOUT)
        pickle.dump(envelope, handle)
        pickle.dump(state, handle)


def test_unmutated_checkpoint_envelope_resumes(tmp_path):
    """The stale-checkpoint cases above differ from a loadable file in
    the one field each mutates."""
    params = WorldParams(**CKPT_PARAMS)
    ckpt = BuildCheckpoint(str(tmp_path), params)
    _write_checkpoint(ckpt.path, _good_checkpoint(params))
    assert ckpt.load() == (["registry"], {"timings": {}})
    assert ckpt.stats["resumed"] is True


def test_stale_checkpoint_state_is_never_unpickled(tmp_path, monkeypatch):
    """A rejected envelope is decided before the state pickle is read."""
    params = WorldParams(**CKPT_PARAMS)
    ckpt = BuildCheckpoint(str(tmp_path), params)
    _write_checkpoint(ckpt.path, {**_good_checkpoint(params), "version": "0.0.1"})
    loads = []
    real_load = pickle.load
    monkeypatch.setattr(pickle, "load", lambda handle: loads.append(1) or real_load(handle))
    assert ckpt.load() is None
    assert len(loads) == 1


def test_garbage_checkpoint_file_is_a_miss(tmp_path):
    params = WorldParams(**CKPT_PARAMS)
    ckpt = BuildCheckpoint(str(tmp_path), params)
    with open(ckpt.path, "wb") as handle:
        handle.write(b"not a pickle at all")
    assert ckpt.load() is None
    assert "unreadable checkpoint" in ckpt.stats["reason"]


def test_checkpoint_save_is_best_effort_on_io_error(tmp_path, monkeypatch):
    """A full disk must not kill a build that can finish in memory."""
    params = WorldParams(**CKPT_PARAMS)
    ckpt = BuildCheckpoint(str(tmp_path), params)

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    assert ckpt.save(["registry"], {"timings": {}}) is False
    assert ckpt.stats["save_errors"] == 1
    assert "checkpoint save failed" in ckpt.stats["reason"]
    assert os.listdir(tmp_path) == []  # no tmp file left behind


_SIGKILL_BUILD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    import repro.scenario.world as world_mod
    from repro.scenario import PaperWorld, WorldParams

    ckpt_dir = sys.argv[1]

    # Slow one mid-build phase down so the parent can SIGKILL us after
    # checkpoints exist but well before the build completes.
    phases = []
    for name, fn in world_mod._BUILD_PHASES:
        if name == "campaign":
            def slowed(env, state, _fn=fn):
                time.sleep(120)
                return _fn(env, state)
            phases.append((name, slowed))
        else:
            phases.append((name, fn))
    world_mod._BUILD_PHASES = tuple(phases)

    PaperWorld.build(
        params=WorldParams(seed=7, scale=0.0002), quiet=True, checkpoint_dir=ckpt_dir
    )
    """
)


def test_sigkilled_build_resumes_byte_identically(tmp_path):
    """The acceptance scenario end-to-end: a build SIGKILLed mid-phase
    (no chance to clean up) resumes via ``--checkpoint`` to a world
    byte-identical to an uninterrupted one."""
    ckpt_dir = tmp_path / "ckpt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGKILL_BUILD_SCRIPT, str(ckpt_dir)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            # Wait for a *completed* checkpoint (atomic-rename target), not
            # an in-flight ``*.tmp.<pid>`` the kill could strand.
            if ckpt_dir.is_dir() and any(p.suffix == ".pkl" for p in ckpt_dir.iterdir()):
                break
            if proc.poll() is not None:
                pytest.fail("build subprocess exited before checkpointing")
            time.sleep(0.05)
        else:
            pytest.fail("no checkpoint appeared before the deadline")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL

    params = WorldParams(seed=7, scale=0.0002)
    resumed = PaperWorld.build(params=params, quiet=True, checkpoint_dir=str(ckpt_dir))
    assert resumed.checkpoint_stats["resumed"] is True
    assert resumed.checkpoint_stats["phases_loaded"]  # at least one phase skipped
    baseline = PaperWorld.build(params=params, quiet=True)
    assert _fingerprint(resumed) == _fingerprint(baseline)


# -- provenance consistency (the cpu_count/pool_engaged fix) -------------------


def test_gate_decision_uses_caller_provided_cpu_count():
    assert fork_pool_gate(8, 16, cpus=1) == (
        False,
        "single CPU available: fork pool would add overhead",
    )
    engaged, reason = fork_pool_gate(8, 16, cpus=8)
    assert engaged and reason is None


def _nested_map(ctx, i):
    inner = ShardRunner(2)
    return inner.map("inner", lambda _, j: (i, j), None, 3), inner.stats["inner"]["reason"]


def test_nested_map_runs_serially_inside_a_worker(eight_cpus):
    """A map inside a pool worker runs serially, so it never clears the
    shard state the worker inherited: every worker's next task still
    runs, with no retry, error, crash or fallback."""
    outer = ShardRunner(2, retries=1)
    results = outer.map("outer", _nested_map, None, 4)
    assert [inner for inner, _ in results] == [[(i, j) for j in range(3)] for i in range(4)]
    assert {reason for _, reason in results} == {
        "inner: inside a pool worker: nested maps run serially"
    }
    stat = outer.stats["outer"]
    assert stat["engaged"] and stat["task_source"] == ["pooled"] * 4
    for counter in ("retries", "task_errors", "worker_crashes", "serial_fallbacks"):
        assert stat[counter] == 0, (counter, stat["errors"])


def test_stat_cpu_count_never_contradicts_engagement(monkeypatch):
    """The recorded cpu_count and the engagement decision come from one
    ``available_cpus()`` call: ``cpu_count: 1`` next to ``engaged: true``
    (a bug an older benchmark record once showed) is impossible by
    construction."""
    for cpus in (1, 8):
        monkeypatch.setattr(pool_mod, "available_cpus", lambda n=cpus: n)
        runner = ShardRunner(4)
        runner.map("t", lambda ctx, i: i, None, 8)
        stat = runner.stats["t"]
        assert stat["cpu_count"] == cpus
        assert stat["engaged"] == (cpus > 1)


def test_render_many_stats_carry_supervision_counters(eight_cpus, world):
    from repro.cli import render_many

    stats = {}
    outputs = render_many(world, ["F1", "T4"], jobs=2, stats=stats)
    assert len(outputs) == 2
    assert stats["pool_engaged"] is True
    assert stats["cpu_count"] == 8
    assert stats["supervision"]["serial_fallbacks"] == 0
    assert stats["supervision"]["retries_allowed"] == 2


# -- spill-file integrity ------------------------------------------------------


def test_spill_roundtrip_and_header(tmp_path):
    import numpy as np

    from repro.measurement.capture_store import (
        SPILL_HEADER_SIZE,
        SPILL_MAGIC,
        map_spill,
        write_spill,
    )

    data = np.arange(999, dtype=np.uint8).tobytes()
    path = write_spill(data, directory=str(tmp_path))
    assert os.path.basename(path).startswith(f"repro-spill-{os.getpid()}-")
    assert os.path.getsize(path) == SPILL_HEADER_SIZE + len(data)
    with open(path, "rb") as handle:
        assert handle.read(len(SPILL_MAGIC)) == SPILL_MAGIC
    mapped = map_spill(path)
    assert bytes(mapped) == data


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw[:-3],                                  # truncated payload
        lambda raw: raw[:40] + b"\xff" + raw[41:],             # flipped payload byte
        lambda raw: b"WRONGMAG" + raw[8:],                     # bad magic
        lambda raw: raw[:10],                                  # shorter than the header
    ],
)
def test_corrupted_spill_fails_loudly_naming_the_path(tmp_path, corrupt):
    from repro.measurement.capture_store import SpillError, map_spill, write_spill

    path = write_spill(bytes(range(256)) * 4, directory=str(tmp_path))
    with open(path, "rb") as handle:
        raw = handle.read()
    with open(path, "wb") as handle:
        handle.write(corrupt(raw))
    with pytest.raises(SpillError) as excinfo:
        map_spill(path)
    assert path in str(excinfo.value)


def test_sweep_removes_only_dead_pid_spills(tmp_path, monkeypatch):
    from repro.measurement.capture_store import sweep_stale_spills

    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
    dead = tmp_path / "repro-spill-999999-abc.bin"       # PID far above pid_max
    own = tmp_path / f"repro-spill-{os.getpid()}-x.bin"  # this (live) process
    init = tmp_path / "repro-spill-1-y.bin"              # PID 1 is always alive
    foreign = tmp_path / "unrelated.bin"                 # not a spill file at all
    for path in (dead, own, init, foreign):
        path.write_bytes(b"x")
    removed = sweep_stale_spills()
    assert removed == [str(dead)]
    assert not dead.exists()
    assert own.exists() and init.exists() and foreign.exists()


def test_sweep_is_inert_without_a_spill_dir(monkeypatch):
    from repro.measurement.capture_store import sweep_stale_spills

    monkeypatch.delenv("REPRO_SPILL_DIR", raising=False)
    assert sweep_stale_spills() == []


# -- atomic writes -------------------------------------------------------------


def test_atomic_write_json_roundtrip_and_no_tmp(tmp_path):
    """A JSON report (``verify-world --report``) written atomically."""
    path = tmp_path / "record.json"
    atomic_write_text(path, json.dumps({"b": 2, "a": 1}) + "\n")
    assert json.loads(path.read_text()) == {"a": 1, "b": 2}
    assert path.read_text().endswith("\n")
    assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []


def test_atomic_write_json_failure_leaves_target_untouched(tmp_path):
    """Serialization that fails after the temp file opened removes it."""
    path = tmp_path / "record.json"
    atomic_write_text(path, "previous contents\n")
    with pytest.raises(TypeError):
        atomic_write_stream(
            path, lambda handle: handle.write(json.dumps({"bad": object()}).encode())
        )
    assert path.read_text() == "previous contents\n"
    assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []
