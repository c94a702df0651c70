"""Shared fork-pool plumbing for the build, render, and verify pools.

Three subsystems shard work across processes — the world build
(:mod:`repro.scenario.world`), artifact rendering
(:func:`repro.cli.render_many`), and the conformance matrix
(:mod:`repro.verify.runner`).  They all need the same three decisions
made the same way:

* how many CPUs are actually usable (cgroup/affinity aware, not just
  ``os.cpu_count()``),
* whether a pool is worth forking at all (a ``--jobs 8`` request on a
  one-CPU container must take the serial path rather than silently pay
  fork overhead for nothing), and
* how to ship a heavy context to workers without pickling it (set a
  module global before the pool forks; the child inherits it
  copy-on-write and only the small task index crosses the pipe).

This module is the single home for those decisions, plus the
**supervision layer** that makes pooled execution survive hostile
conditions.  The pool owns its worker processes directly (fork
``Process`` + duplex pipe per slot, not ``ProcessPoolExecutor``) so the
parent can distinguish three failure classes and answer each one:

* a **worker crash** (signal / nonzero exit, e.g. the OOM killer) is
  seen as EOF on the worker's pipe — the worker is reaped, a fresh one
  forked, and the task requeued;
* a **hung task** trips the per-task wall-clock ``task_timeout`` — the
  worker is SIGKILLed and replaced, and the task requeued;
* an **in-task exception** is reported over the pipe as data — the task
  is requeued like the others, but counted separately.

Requeued tasks retry with exponential backoff up to ``retries`` extra
pooled attempts; tasks still unfinished when the pool drains are
re-executed serially *in the parent*, where neither chaos injection nor
worker death can reach them.  That fallback is safe by construction:
every shard task is a pure function of ``(ctx, index)`` with its own
derived RNG stream, so a retried task is byte-identical to a first-try
task, and a deterministic in-task exception surfaces in the parent with
its genuine traceback.  The supervisor's counters land in
:attr:`ShardRunner.stats` per phase.

This module deliberately imports nothing else from ``repro`` except its
sibling :mod:`repro.util.chaos` so every layer can use it.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time

__all__ = [
    "available_cpus",
    "fork_pool_gate",
    "ShardRunner",
    "summarize_shard_stats",
]


def available_cpus():
    """Usable CPU count: scheduler affinity when exposed (respects
    cgroup/taskset limits), falling back to the raw core count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def fork_pool_gate(jobs, n_tasks, cpus=None, phase=None):
    """Decide whether a fork pool should engage.

    Returns ``(engaged, reason)``; ``reason`` is ``None`` when engaged,
    otherwise a stable human-readable string recorded in the shard
    stats so a silently-serial run is explainable after the fact.
    ``phase`` (when given) prefixes the reason, so stats covering several
    phases read unambiguously — every :meth:`ShardRunner.map` call
    passes its phase name.

    ``cpus`` lets the caller pass the :func:`available_cpus` value it
    will record in the stats, so the recorded ``cpu_count`` and the
    engagement decision can never disagree (``cpu_count: 1`` next to
    ``engaged: true`` would be a recording bug, not a configuration).
    """

    def veto(reason):
        return False, f"{phase}: {reason}" if phase else reason

    import multiprocessing

    if jobs <= 1:
        return veto("jobs <= 1: serial path requested")
    if n_tasks <= 1:
        return veto("single task: nothing to parallelize")
    if multiprocessing.current_process().daemon:
        # A pool worker is daemonic and may not fork children; a nested
        # map must also leave the worker's inherited shard state alone.
        return veto("inside a pool worker: nested maps run serially")
    if cpus is None:
        cpus = available_cpus()
    if cpus <= 1:
        return veto("single CPU available: fork pool would add overhead")
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return veto("fork start method unavailable on this platform")
    return True, None


def _percentile(ordered, q):
    """Linear-interpolation percentile of an ascending list (numpy's
    default method, dependency-free)."""
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def summarize_shard_stats(stats):
    """Condense live :attr:`ShardRunner.stats` into ``world.shard_stats``.

    The live dicts carry one float and one source string **per task** —
    thousands of entries at scale, too many to keep on every built
    world.  The condensed form replaces ``task_seconds`` with its
    summary (count/p50/p95/max/sum) and ``task_source`` with per-source
    counts; everything else is copied through unchanged.  The benchmark's
    ``batch`` workload reads the result for its ``util.pool.*``
    metrics.
    """
    out = {}
    for phase, stat in stats.items():
        summary = dict(stat)
        seconds = sorted(stat.get("task_seconds", ()))
        summary["task_seconds"] = {
            "count": len(seconds),
            "p50": round(_percentile(seconds, 0.50), 6),
            "p95": round(_percentile(seconds, 0.95), 6),
            "max": round(seconds[-1], 6) if seconds else 0.0,
            "sum": round(sum(seconds), 6),
        }
        sources = {}
        for source in stat.get("task_source", ()):
            sources[source] = sources.get(source, 0) + 1
        summary["task_source"] = sources
        out[phase] = summary
    return out


#: Pre-fork worker state: ``(fn, ctx)``.  Set by :meth:`ShardRunner.map`
#: immediately before the pool forks so children inherit it
#: copy-on-write; only the integer task index is pickled per task.
_SHARD_STATE = None

#: Sentinel for "no previous SIGTERM handler to restore".
_TERM_UNTRAPPED = object()


def _trap_sigterm():
    """Route SIGTERM through KeyboardInterrupt while a pool is live.

    A SIGTERMed build must unwind through the supervising frame's
    ``finally`` so workers are terminated and joined rather than
    orphaned.  Only installable from the main thread; returns the
    previous handler (or a sentinel when nothing was installed).
    """
    if threading.current_thread() is not threading.main_thread():
        return _TERM_UNTRAPPED

    def _on_term(signum, frame):
        raise KeyboardInterrupt("SIGTERM")

    try:
        return signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):
        return _TERM_UNTRAPPED


def _untrap_sigterm(previous):
    if previous is _TERM_UNTRAPPED:
        return
    try:
        signal.signal(signal.SIGTERM, previous)
    except (ValueError, OSError, TypeError):
        pass


def _supervised_worker(conn, phase):
    """Worker loop: serve ``(index, attempt)`` requests until EOF/None.

    Replies ``("ok", index, attempt, seconds, result)`` or
    ``("error", index, attempt, seconds, message)``.  A crash (signal,
    ``os._exit``) simply never replies — the parent sees EOF.  Chaos
    injection, when enabled via ``REPRO_CHAOS``, happens here and *only*
    here: the parent's serial and fallback paths never fault.
    """
    from repro.util.chaos import chaos_from_env

    try:
        monkey = chaos_from_env()
    except Exception:
        # The parent validated the spec before forking; an unparsable
        # spec here means the environment changed under us — run clean
        # rather than dying in a loop.
        monkey = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        index, attempt = message
        fn, ctx = _SHARD_STATE
        started = time.perf_counter()
        try:
            if monkey is not None:
                monkey.unleash(phase, index, attempt)
            result = fn(ctx, index)
            reply = ("ok", index, attempt, time.perf_counter() - started, result)
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            reply = (
                "error",
                index,
                attempt,
                time.perf_counter() - started,
                f"{type(exc).__name__}: {exc}",
            )
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return


class _WorkerSlot:
    """One supervised worker process and the pipe the parent holds."""

    __slots__ = ("process", "conn", "task", "attempt", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task = None  # index of the task in flight, or None when idle
        self.attempt = 0
        self.deadline = None  # monotonic instant the in-flight task times out


class ShardRunner:
    """Deterministic fan-out of ``fn(ctx, i) for i in range(n_tasks)``.

    The contract build phases rely on: results come back **in task
    order** regardless of completion order, worker exceptions propagate
    to the caller (a build error must fail loudly, never produce a
    silently truncated world), and the serial fallback calls the exact
    same ``fn`` with the exact same indices — so the merged output is
    identical at any ``jobs`` by construction.

    Supervision knobs: ``task_timeout`` is the per-task wall-clock
    budget in seconds (None disables timeouts); ``retries`` is how many
    *extra* pooled attempts a failed task gets before the in-process
    serial fallback; ``backoff`` is the base of the exponential retry
    delay (``backoff * 2**(attempt-1)`` seconds).

    Per-phase engagement decisions, per-task wall-clock timings, and
    the supervisor's fault counters are recorded in :attr:`stats`.
    """

    def __init__(self, jobs=1, task_timeout=None, retries=2, backoff=0.1):
        self.jobs = max(1, int(jobs))
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        #: phase name -> {engaged, reason, jobs, workers, tasks,
        #: cpu_count, task_seconds, task_source, retries, timeouts,
        #: worker_crashes, task_errors, serial_fallbacks, errors, ...}
        self.stats = {}

    def map(self, phase, fn, ctx, n_tasks, on_result=None):
        """Run ``fn(ctx, i)`` for each task, returning results in order.

        ``on_result(i)`` (optional) fires once per task as it completes
        — in completion order, not task order — for progress reporting.
        """
        cpus = available_cpus()
        engaged, reason = fork_pool_gate(self.jobs, n_tasks, cpus=cpus, phase=phase)
        stat = {
            "engaged": engaged,
            "reason": reason,
            "jobs": self.jobs,
            "workers": min(self.jobs, n_tasks) if engaged else 1,
            "tasks": n_tasks,
            "cpu_count": cpus,
            "task_seconds": [0.0] * n_tasks,
            # Which path finished each task: "serial" (pool never
            # engaged), "pooled", or "fallback" (in-parent re-run).
            "task_source": ["serial"] * n_tasks,
            "task_timeout": self.task_timeout,
            "retries_allowed": self.retries,
            "retries": 0,
            "timeouts": 0,
            "worker_crashes": 0,
            "task_errors": 0,
            "serial_fallbacks": 0,
            "errors": [],
        }
        self.stats[phase] = stat
        if not engaged:
            results = [None] * n_tasks
            for i in range(n_tasks):
                t0 = time.perf_counter()
                results[i] = fn(ctx, i)
                stat["task_seconds"][i] = round(time.perf_counter() - t0, 6)
                if on_result is not None:
                    on_result(i)
            return results
        # Validate a configured chaos spec loudly in the parent before
        # any worker forks — a typo'd REPRO_CHAOS must fail the run, not
        # silently disable the chaos.
        from repro.util.chaos import chaos_from_env

        chaos_from_env()
        return self._map_supervised(stat, phase, fn, ctx, n_tasks, on_result)

    # -- supervised pool ---------------------------------------------------------------

    def _map_supervised(self, stat, phase, fn, ctx, n_tasks, on_result):
        import multiprocessing
        from multiprocessing import connection as mpconnection

        mp = multiprocessing.get_context("fork")
        global _SHARD_STATE
        _SHARD_STATE = (fn, ctx)

        results = [None] * n_tasks
        done = [False] * n_tasks
        attempts = [0] * n_tasks  # pooled attempts started per task
        # pop() from the end -> initial dispatch in ascending task order.
        pending = list(range(n_tasks - 1, -1, -1))
        delayed = []  # heap of (eligible_at, index) awaiting backoff
        workers = []

        def spawn():
            parent_end, child_end = mp.Pipe(duplex=True)
            process = mp.Process(
                target=_supervised_worker, args=(child_end, phase), daemon=True
            )
            process.start()
            child_end.close()
            return _WorkerSlot(process, parent_end)

        def retire(slot):
            """Hard-stop one worker (hung or crashed): close, kill, reap."""
            try:
                slot.conn.close()
            except OSError:
                pass
            if slot.process.is_alive():
                slot.process.kill()
            slot.process.join()

        def replace(slot):
            retire(slot)
            workers.remove(slot)
            workers.append(spawn())

        def note_error(index, attempt, message):
            if len(stat["errors"]) < 8:
                stat["errors"].append(f"{phase}[{index}] attempt {attempt}: {message}")

        def requeue(index):
            """Schedule another pooled attempt, or park for serial fallback."""
            if attempts[index] > self.retries:
                return  # pooled attempts exhausted; the fallback sweep gets it
            stat["retries"] += 1
            delay = self.backoff * (2 ** (attempts[index] - 1))
            heapq.heappush(delayed, (time.monotonic() + delay, index))

        def record_ok(index, seconds, payload, source):
            if done[index]:
                return  # a timed-out attempt's late duplicate; fn is pure
            done[index] = True
            results[index] = payload
            stat["task_seconds"][index] = round(seconds, 6)
            stat["task_source"][index] = source
            if on_result is not None:
                on_result(index)

        previous_term = _trap_sigterm()
        try:
            for _ in range(stat["workers"]):
                workers.append(spawn())
            while True:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    pending.append(heapq.heappop(delayed)[1])
                for slot in list(workers):
                    if slot.task is not None or not pending:
                        continue
                    index = pending.pop()
                    attempts[index] += 1
                    slot.task = index
                    slot.attempt = attempts[index]
                    slot.deadline = (
                        None if self.task_timeout is None else now + self.task_timeout
                    )
                    try:
                        slot.conn.send((index, slot.attempt))
                    except (OSError, ValueError):
                        # The worker died while idle; replace it and retry
                        # the dispatch on the fresh one next iteration.
                        stat["worker_crashes"] += 1
                        slot.task = None
                        attempts[index] -= 1
                        pending.append(index)
                        replace(slot)
                busy = [slot for slot in workers if slot.task is not None]
                if not busy:
                    if delayed:
                        time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                        continue
                    break  # nothing running, nothing queued: pool phase over
                timeout = None
                deadlines = [s.deadline for s in busy if s.deadline is not None]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                if delayed:
                    until_eligible = max(0.0, delayed[0][0] - time.monotonic())
                    timeout = (
                        until_eligible if timeout is None else min(timeout, until_eligible)
                    )
                ready = mpconnection.wait([s.conn for s in busy], timeout=timeout)
                slot_of = {s.conn: s for s in busy}
                for conn in ready:
                    slot = slot_of[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # EOF mid-task: the worker died (signal / hard
                        # exit) — distinct from an in-task exception,
                        # which would have arrived as an "error" reply.
                        index, attempt = slot.task, slot.attempt
                        stat["worker_crashes"] += 1
                        exitcode = slot.process.exitcode
                        note_error(index, attempt, f"worker died (exitcode {exitcode})")
                        replace(slot)
                        requeue(index)
                        continue
                    kind, index, attempt, seconds, payload = message
                    slot.task = None
                    slot.deadline = None
                    if kind == "ok":
                        record_ok(index, seconds, payload, "pooled")
                    else:
                        stat["task_errors"] += 1
                        note_error(index, attempt, payload)
                        requeue(index)
                now = time.monotonic()
                for slot in list(workers):
                    if slot.task is None or slot.deadline is None or now < slot.deadline:
                        continue
                    index, attempt = slot.task, slot.attempt
                    stat["timeouts"] += 1
                    note_error(
                        index,
                        attempt,
                        f"timed out after {self.task_timeout:.3g}s; worker killed",
                    )
                    replace(slot)
                    requeue(index)
        finally:
            _SHARD_STATE = None
            _untrap_sigterm(previous_term)
            # Politely ask idle workers to exit, then escalate.  Bounded:
            # ~2s worst case even with a hung worker mid-task.
            for slot in workers:
                try:
                    slot.conn.send(None)
                except (OSError, ValueError):
                    pass
            for slot in workers:
                try:
                    slot.conn.close()
                except OSError:
                    pass
            grace = time.monotonic() + 1.0
            for slot in workers:
                slot.process.join(timeout=max(0.0, grace - time.monotonic()))
            for slot in workers:
                if slot.process.is_alive():
                    slot.process.terminate()
            for slot in workers:
                slot.process.join(timeout=1.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join()

        # In-process serial re-execution of whatever the pool could not
        # finish.  Chaos never applies here and the parent cannot lose
        # itself, so this terminates with the right answer — or raises
        # the genuine exception of a deterministically-failing task.
        for index in range(n_tasks):
            if done[index]:
                continue
            stat["serial_fallbacks"] += 1
            stat["task_source"][index] = "fallback"
            t0 = time.perf_counter()
            results[index] = fn(ctx, index)
            stat["task_seconds"][index] = round(time.perf_counter() - t0, 6)
            done[index] = True
            if on_result is not None:
                on_result(index)
        return results
