"""Direct unit coverage for the spill janitor.

:func:`~repro.measurement.capture_store.sweep_stale_spills` removes
dead-PID spills through the explicit ``directory=`` argument (the
supervision suite only exercises the ``REPRO_SPILL_DIR`` path); these
tests also pin its idempotence and the live-PID / foreign-file
guarantees.
"""

import os

from repro.measurement.capture_store import sweep_stale_spills

# ---------------------------------------------------------------------------
# sweep_stale_spills via the explicit directory argument
# ---------------------------------------------------------------------------


def _dead_pid():
    """A PID guaranteed dead: fork a child and reap it."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


def test_sweep_directory_argument_removes_only_dead_pid_spills(tmp_path):
    dead = tmp_path / f"repro-spill-{_dead_pid()}-abc.bin"
    own = tmp_path / f"repro-spill-{os.getpid()}-def.bin"
    foreign = tmp_path / "not-a-spill.bin"
    truncated_name = tmp_path / "repro-spill-notapid-x.bin"
    for path in (dead, own, foreign, truncated_name):
        path.write_bytes(b"x" * 8)

    removed = sweep_stale_spills(directory=str(tmp_path))

    assert removed == [str(dead)]
    assert not dead.exists()
    assert own.exists(), "a live PID's spill must never be touched"
    assert foreign.exists(), "non-spill files must never be touched"
    assert truncated_name.exists(), "non-matching names must never be touched"


def test_sweep_is_idempotent_and_inert_on_missing_directory(tmp_path):
    spill = tmp_path / f"repro-spill-{_dead_pid()}-abc.bin"
    spill.write_bytes(b"x")
    first = sweep_stale_spills(directory=str(tmp_path))
    second = sweep_stale_spills(directory=str(tmp_path))
    assert len(first) == 1
    assert second == []
    assert sweep_stale_spills(directory=str(tmp_path / "missing")) == []


def test_sweep_explicit_directory_ignores_env_var(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    env_spill = env_dir / f"repro-spill-{_dead_pid()}-env.bin"
    env_spill.write_bytes(b"x")
    arg_dir = tmp_path / "arg"
    arg_dir.mkdir()
    monkeypatch.setenv("REPRO_SPILL_DIR", str(env_dir))

    assert sweep_stale_spills(directory=str(arg_dir)) == []
    assert env_spill.exists(), "explicit directory= must not sweep the env dir"
