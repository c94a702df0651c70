"""The metamorphic-relation runner.

Builds a (seed x scale x fault-preset) matrix of worlds, wraps each in a
lazily-memoizing :class:`WorldRecord`, groups the records by invariant
scope, evaluates every check in :data:`~repro.verify.invariants.REGISTRY`,
and folds the outcomes into a :class:`ConformanceReport` — machine-readable
(``as_dict``/``to_json``), human-readable (``render``), and judgeable
(``ok`` is False iff an error-severity invariant was violated).

A check that raises is not a crash of the harness: the exception is
converted into a violation of that invariant (the harness's own contract is
"the pipeline degrades, never crashes", so an analysis-layer exception is
exactly the kind of bug the run exists to catch).
"""

import functools
import json
from dataclasses import dataclass, field

from repro.verify.invariants import all_invariants

__all__ = [
    "Cell",
    "WorldRecord",
    "InvariantOutcome",
    "ConformanceReport",
    "run_conformance",
    "default_builder",
]


@dataclass(frozen=True)
class Cell:
    """One point of the verification matrix."""

    seed: int
    scale: float
    fault_name: str

    def label(self):
        return f"seed={self.seed} scale={self.scale:g} faults={self.fault_name}"


def default_builder(cell, jobs=1):
    """Build the world for a matrix cell (no cache: verification must
    exercise the real construction path).  ``jobs`` shards the build
    itself — the world is byte-identical at any value."""
    from repro.faults import resolve_fault_profile
    from repro.scenario.world import PaperWorld, WorldParams

    params = WorldParams(
        seed=cell.seed,
        scale=cell.scale,
        faults=resolve_fault_profile(cell.fault_name),
    )
    return PaperWorld.build(params=params, jobs=jobs)


class WorldRecord:
    """A built world plus memoized derived views, keyed by matrix cell.

    Everything expensive (corpus parse, victimology, quality accounting,
    version demographics, the summary text) is computed at most once per
    record no matter how many invariants consult it.
    """

    def __init__(self, cell, world):
        self.cell = cell
        self.world = world
        from repro.analysis.context import AnalysisContext

        self.ctx = AnalysisContext(world)
        self._amp_rows = None
        self._quality = None
        self._summary_text = None
        self._ip_union = None

    # -- identity ----------------------------------------------------------

    @property
    def seed(self):
        return self.cell.seed

    @property
    def scale(self):
        return self.cell.scale

    @property
    def fault_name(self):
        return self.cell.fault_name

    @property
    def is_clean(self):
        return self.world.params.faults.is_clean

    # -- memoized views ----------------------------------------------------

    def parsed(self):
        return self.ctx.parsed_samples()

    def victim_report(self):
        return self.ctx.victim_report()

    def concentration(self):
        return self.ctx.concentration()

    def amplifier_rows(self):
        """Figure-3 rows, one per monlist sample (outage rows included)."""
        if self._amp_rows is None:
            from repro.analysis.remediation import amplifier_counts

            self._amp_rows = amplifier_counts(
                self.parsed(), self.world.table, self.world.pbl
            )
        return self._amp_rows

    def measured_rows(self):
        """Figure-3 rows where the sweep actually ran (outages excluded)."""
        return [row for row in self.amplifier_rows() if not row.outage]

    def unique_amplifier_ips(self):
        return len(self.amplifier_ip_union())

    def amplifier_ip_union(self):
        if self._ip_union is None:
            union = set()
            for parsed in self.parsed():
                union.update(parsed.amplifier_ips())
            self._ip_union = frozenset(union)
        return self._ip_union

    def quality(self):
        if self._quality is None:
            from repro.analysis.quality import quality_report

            self._quality = quality_report(self.world, parsed_samples=self.parsed())
        return self._quality

    def version_report(self):
        return self.ctx.version_report()

    def summary_text(self):
        if self._summary_text is None:
            self._summary_text = self.world.summary()
        return self._summary_text

    def warm_group_views(self):
        """Force every view a group-scope invariant can consult.

        The parallel matrix evaluates world-scope invariants inside the
        worker, then ships the record back to the parent for the
        scale/seed/fault-scope groups — warming first means the parent
        never re-derives anything, and the raw parsed corpus (by far the
        heaviest memo, and re-derivable) can be dropped from the pickle.
        """
        self.victim_report()
        self.concentration()
        self.amplifier_rows()
        self.amplifier_ip_union()
        self.quality()
        self.version_report()
        self.summary_text()
        return self

    def drop_parsed_corpus(self):
        """Release the parsed-corpus memo (kept: everything derived)."""
        self.ctx._parsed = None
        return self


@dataclass
class InvariantOutcome:
    """One invariant evaluated against one group of records."""

    name: str
    scope: str
    severity: str
    #: Which matrix slice was judged (e.g. "seed=7 faults=clean" for a
    #: scale-scope group, or a single cell label for world scope).
    subject: str
    #: "pass" | "fail" | "skip"
    status: str
    measured: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def failed(self):
        return self.status == "fail"

    def as_dict(self):
        return {
            "invariant": self.name,
            "scope": self.scope,
            "severity": self.severity,
            "subject": self.subject,
            "status": self.status,
            "measured": self.measured,
            "violations": list(self.violations),
        }


@dataclass
class ConformanceReport:
    """The full matrix run: every outcome, plus the verdict."""

    cells: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    invariants_run: int = 0

    @property
    def ok(self):
        """True iff no error-severity invariant failed."""
        return not self.violated()

    def violated(self, include_warnings=False):
        """Names of invariants with at least one failing outcome."""
        names = []
        for outcome in self.outcomes:
            if not outcome.failed:
                continue
            if outcome.severity != "error" and not include_warnings:
                continue
            if outcome.name not in names:
                names.append(outcome.name)
        return names

    def counts(self):
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    def as_dict(self):
        return {
            "ok": self.ok,
            "invariants_registered": self.invariants_run,
            "matrix": [
                {"seed": c.seed, "scale": c.scale, "faults": c.fault_name}
                for c in self.cells
            ],
            "counts": self.counts(),
            "violated": self.violated(),
            "violated_warnings": [
                name
                for name in self.violated(include_warnings=True)
                if name not in self.violated()
            ],
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)

    def render(self):
        counts = self.counts()
        lines = [
            f"Conformance: {len(self.cells)} worlds, "
            f"{self.invariants_run} invariants, "
            f"{counts['pass']} pass / {counts['fail']} fail / {counts['skip']} skip",
        ]
        for outcome in self.outcomes:
            if outcome.status != "fail":
                continue
            tag = "FAIL" if outcome.severity == "error" else "warn"
            lines.append(f"  [{tag}] {outcome.name} ({outcome.subject})")
            for violation in outcome.violations:
                lines.append(f"         - {violation}")
        lines.append("CONFORMANT" if self.ok else "NONCONFORMANT: " + ", ".join(self.violated()))
        return "\n".join(lines)


def _evaluate(inv, args, subject, outcomes):
    """Run one check, converting raised exceptions into violations."""
    try:
        result = inv.check(*args, inv.tolerance)
    except Exception as exc:  # noqa: BLE001 — a crashing check is a finding
        outcomes.append(
            InvariantOutcome(
                name=inv.name,
                scope=inv.scope,
                severity=inv.severity,
                subject=subject,
                status="fail",
                violations=[f"check raised {type(exc).__name__}: {exc}"],
            )
        )
        return
    if result is None:
        status, measured, violations = "skip", {}, []
    else:
        measured = result.get("measured", {})
        violations = result.get("violations", [])
        status = "fail" if violations else "pass"
    outcomes.append(
        InvariantOutcome(
            name=inv.name,
            scope=inv.scope,
            severity=inv.severity,
            subject=subject,
            status=status,
            measured=measured,
            violations=violations,
        )
    )


def _cell_task(state, index):
    """Build one matrix cell and run its world-scope checks in-process.

    One supervised shard-pool task (also the serial/fallback body).
    Returns ``(record, outcomes)``: the record has every group-consumed
    view warmed and its raw parsed corpus dropped (smaller pickle; the
    parent only reads derived views), and ``outcomes`` are the
    world-scope results in invariant registration order.
    """
    cells, builder, world_invs = state
    cell = cells[index]
    record = WorldRecord(cell, builder(cell))
    outcomes = []
    for inv in world_invs:
        _evaluate(inv, (record,), cell.label(), outcomes)
    record.warm_group_views()
    record.drop_parsed_corpus()
    return record, outcomes


def run_conformance(
    seeds,
    scales,
    faults,
    builder=None,
    progress=None,
    jobs=1,
    task_timeout=None,
    retries=None,
):
    """Build the matrix and evaluate every registered invariant.

    Parameters
    ----------
    seeds, scales, faults:
        The matrix axes.  ``faults`` are preset names ("clean", "paper",
        "hostile"); fault-scope invariants need "clean" present to pair
        against.
    builder:
        ``builder(cell) -> world`` override; tests inject deliberately
        broken builders here to prove violations are caught and named.
    progress:
        Optional ``progress(message)`` callback for CLI feedback.
    jobs:
        Matrix cells built (and world-scope invariants evaluated) over
        this many fork-pool workers.  The report is identical at any
        value: outcomes are merged in request order, never completion
        order.  Pool engagement is decided by the shared
        :func:`repro.util.pool.fork_pool_gate` — the serial path runs
        where fork is unavailable, the matrix has a single cell, or the
        host exposes one CPU.  Where the cell pool does not engage,
        :func:`default_builder` shards each cell's build over ``jobs``
        workers instead (byte-identical at any value); inside the cell
        pool it builds serially, so no pool is ever started in a pool
        worker.
    task_timeout, retries:
        Supervision knobs for the cell pool (see
        :class:`~repro.util.pool.ShardRunner`): per-cell wall-clock
        budget and extra pooled attempts before the in-process fallback.
        They affect scheduling only — a retried cell re-derives the same
        seeded world and the same outcomes.
    """
    say = progress or (lambda message: None)

    cells = [
        Cell(seed=seed, scale=scale, fault_name=fault)
        for seed in seeds
        for scale in scales
        for fault in faults
    ]
    invariants = all_invariants()
    world_invs = [inv for inv in invariants if inv.scope == "world"]

    from repro.util.pool import ShardRunner, fork_pool_gate

    runner_kwargs = {}
    if task_timeout is not None:
        runner_kwargs["task_timeout"] = task_timeout
    if retries is not None:
        runner_kwargs["retries"] = retries
    runner = ShardRunner(jobs, **runner_kwargs)
    engaged, gate_reason = fork_pool_gate(jobs, len(cells), phase="cells")
    if builder is None:
        builder = default_builder
        if not engaged and jobs > 1:
            builder = functools.partial(default_builder, jobs=jobs)
    if engaged:
        say(f"building {len(cells)} worlds over {min(jobs, len(cells))} workers")
    elif jobs > 1:
        say(f"cell pool not engaged: {gate_reason}")

    def built_one(index):
        say(f"built {cells[index].label()}")

    state = (cells, builder, world_invs)
    outputs = runner.map("cells", _cell_task, state, len(cells), on_result=built_one)
    records = {}
    world_outcomes = {}
    for cell, (record, outcomes) in zip(cells, outputs):
        records[cell] = record
        world_outcomes[cell] = outcomes

    report = ConformanceReport(cells=cells, invariants_run=len(invariants))
    say(f"evaluating {len(invariants)} invariants over {len(cells)} worlds")

    for inv in invariants:
        if inv.scope == "world":
            position = world_invs.index(inv)
            for cell in cells:
                report.outcomes.append(world_outcomes[cell][position])
        elif inv.scope == "scale":
            for seed in seeds:
                for fault in faults:
                    group = sorted(
                        (records[c] for c in cells if c.seed == seed and c.fault_name == fault),
                        key=lambda record: record.scale,
                    )
                    if len(group) < 2:
                        continue
                    subject = f"seed={seed} faults={fault} scales={[r.scale for r in group]}"
                    _evaluate(inv, (group,), subject, report.outcomes)
        elif inv.scope == "seed":
            for scale in scales:
                for fault in faults:
                    group = sorted(
                        (records[c] for c in cells if c.scale == scale and c.fault_name == fault),
                        key=lambda record: record.seed,
                    )
                    if len(group) < 2:
                        continue
                    subject = f"scale={scale:g} faults={fault} seeds={[r.seed for r in group]}"
                    _evaluate(inv, (group,), subject, report.outcomes)
        elif inv.scope == "fault":
            for seed in seeds:
                for scale in scales:
                    clean = records.get(Cell(seed, scale, "clean"))
                    if clean is None:
                        continue
                    for fault in faults:
                        if fault == "clean":
                            continue
                        faulted = records[Cell(seed, scale, fault)]
                        subject = f"seed={seed} scale={scale:g} clean-vs-{fault}"
                        _evaluate(inv, (clean, faulted), subject, report.outcomes)
    return report
