"""Direct unit coverage for two janitors previously tested only in passing.

* :func:`~repro.measurement.capture_store.sweep_stale_spills` — dead-PID
  spill removal through the explicit ``directory=`` argument (the
  supervision suite only exercises the ``REPRO_SPILL_DIR`` path), plus
  idempotence and the live-PID / foreign-file guarantees;
* the parse cache's envelope-format discipline — a format-2 reader must
  refuse format-1 (and future-format) entries with a :class:`CacheMiss`
  naming the format, and ``load_or_decode_corpus`` must fall back to a
  real parse over such an entry rather than trusting it.
"""

import os
import pickle

import pytest

from repro.analysis.parse_cache import (
    CacheMiss,
    cached_corpus_path,
    corpus_digest,
    load_or_decode_corpus,
    load_parsed_corpus,
    save_parsed_corpus,
)
from repro.measurement.capture_store import sweep_stale_spills
from repro.scenario.world import PaperWorld

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


# ---------------------------------------------------------------------------
# Parse-cache envelope format discipline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    world = PaperWorld.build(seed=7, scale=0.0002)
    return list(world.onp.monlist_samples)


def _rewrite_format(path, new_format):
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    payload["format"] = new_format
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def test_format_1_entries_are_rejected_with_cache_miss(corpus, tmp_path):
    parsed, n = load_or_decode_corpus(corpus, cache_dir=str(tmp_path))
    assert n == len(corpus)
    digest = corpus_digest(corpus)
    path = cached_corpus_path(digest, str(tmp_path))
    assert os.path.exists(path)

    # A freshly written envelope loads fine...
    assert load_parsed_corpus(path, digest) is not None

    # ...a format-1 rewrite of the same bytes must not.
    _rewrite_format(path, 1)
    with pytest.raises(CacheMiss) as excinfo:
        load_parsed_corpus(path, digest)
    assert "cache envelope format" in str(excinfo.value)
    assert "1" in str(excinfo.value)


@pytest.mark.parametrize("bad_format", [1, 3, None, "2"])
def test_only_the_current_envelope_format_is_accepted(corpus, tmp_path, bad_format):
    digest = corpus_digest(corpus)
    path = cached_corpus_path(digest, str(tmp_path))
    load_or_decode_corpus(corpus, cache_dir=str(tmp_path))
    _rewrite_format(path, bad_format)
    with pytest.raises(CacheMiss):
        load_parsed_corpus(path, digest)


def test_load_or_parse_falls_back_to_a_real_parse_on_stale_format(corpus, tmp_path):
    cache_dir = str(tmp_path)
    parsed_first, n_first = load_or_decode_corpus(corpus, cache_dir=cache_dir)
    assert n_first == len(corpus)
    parsed_hit, n_hit = load_or_decode_corpus(corpus, cache_dir=cache_dir)
    assert n_hit == 0, "a valid entry must hit"

    path = cached_corpus_path(corpus_digest(corpus), cache_dir)
    _rewrite_format(path, 1)
    parsed_again, n_again = load_or_decode_corpus(corpus, cache_dir=cache_dir)
    assert n_again == len(corpus), "a stale-format entry must force a re-parse"

    # The re-parse rewrote the entry at the current format: hits resume.
    _parsed, n_after = load_or_decode_corpus(corpus, cache_dir=cache_dir)
    assert n_after == 0

    # And every path produced the same analysis input.
    for a, b in zip(parsed_first, parsed_again):
        assert a.t == b.t
        assert len(a.tables) == len(b.tables)
        assert a.stats == b.stats
