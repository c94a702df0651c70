"""The invariant registry: every semantic contract the world model must obey.

Each invariant is a named, registered check with a scope, a severity, a
declared tolerance, and the paper section it anchors to.  The registry is
the single source of truth consumed by three clients: the
:mod:`~repro.verify.runner` (which evaluates checks over a seed x scale x
fault matrix), the ``verify-world`` CLI (which turns violations into a
nonzero exit), and DESIGN.md's conformance table (which documents the
tolerances).

Scopes
------
* ``world`` — evaluated once per matrix cell, on a single built world;
* ``scale`` — evaluated per (seed, fault) group across its scales, in
  ascending scale order (metamorphic relation: grow the world, outputs
  must grow ~proportionally);
* ``seed`` — evaluated per (scale, fault) group across its seeds
  (metamorphic relation: reroll randomness, aggregate statistics must stay
  inside their bands while raw bytes differ);
* ``fault`` — evaluated per (seed, scale) pair of a clean world and one
  faulted world (metamorphic relation: degrade the apparatus, ground truth
  must not move and observations may only shrink within bounds).

A check returns ``None`` to *skip* (the group lacks the data to judge —
e.g. a single-scale matrix cannot assess scale growth), or a dict with
``measured`` (numbers worth reporting) and ``violations`` (empty = pass).
Checks never raise on degraded inputs; an unexpected exception inside a
check is itself reported as a violation by the runner.
"""

from dataclasses import dataclass, field

from repro.util.simtime import DAY, WEEK

__all__ = ["Invariant", "REGISTRY", "invariant", "all_invariants"]


@dataclass(frozen=True)
class Invariant:
    """One registered conformance check."""

    name: str
    scope: str  # "world" | "scale" | "seed" | "fault"
    severity: str  # "error" (fails the run) | "warning" (reported only)
    description: str
    #: The paper section/figure this invariant reproduces or guards.
    paper_anchor: str
    #: Declared tolerance knobs, by name (rendered into reports and docs).
    tolerance: dict = field(default_factory=dict)
    check: callable = None


#: {name: Invariant} in registration order (dicts preserve it).
REGISTRY = {}

_SCOPES = ("world", "scale", "seed", "fault")


def invariant(name, scope, description, paper_anchor, severity="error", **tolerance):
    """Decorator: register a check function as a named invariant."""
    if scope not in _SCOPES:
        raise ValueError(f"scope must be one of {_SCOPES}, got {scope!r}")
    if severity not in ("error", "warning"):
        raise ValueError(f"severity must be 'error' or 'warning', got {severity!r}")

    def register(fn):
        if name in REGISTRY:
            raise ValueError(f"duplicate invariant name {name!r}")
        REGISTRY[name] = Invariant(
            name=name,
            scope=scope,
            severity=severity,
            description=description,
            paper_anchor=paper_anchor,
            tolerance=dict(tolerance),
            check=fn,
        )
        return fn

    return register


def all_invariants():
    """Registered invariants, in registration order."""
    return list(REGISTRY.values())


def _result(measured=None, violations=None):
    return {"measured": dict(measured or {}), "violations": list(violations or [])}


def _growth_violations(pairs, rel_tolerance, label):
    """Check consecutive (scale, value) pairs for ~linear growth."""
    violations = []
    for (s1, v1), (s2, v2) in zip(pairs, pairs[1:]):
        if v1 <= 0:
            violations.append(f"{label} is {v1} at scale {s1}; cannot have vanished")
            continue
        expected = s2 / s1
        actual = v2 / v1
        if abs(actual / expected - 1.0) > rel_tolerance:
            violations.append(
                f"{label} grew {actual:.2f}x from scale {s1:g} to {s2:g}; "
                f"expected ~{expected:.2f}x (rel tolerance {rel_tolerance})"
            )
    return violations


# ---------------------------------------------------------------------------
# Scale monotonicity (metamorphic: grow the world, outputs grow ~linearly)
# ---------------------------------------------------------------------------


@invariant(
    "scale.amplifier_pool",
    scope="scale",
    description="Peak observed monlist amplifier count grows ~linearly in scale",
    paper_anchor="§3.1 Fig. 3 (1.4M initial amplifiers at full scale)",
    rel_tolerance=0.5,
)
def check_scale_amplifier_pool(records, tolerance):
    pairs = []
    for record in records:
        measured = record.measured_rows()
        if not measured:
            return None  # an apparatus outage ate the evidence; fault checks cover it
        pairs.append((record.scale, max(row.ips for row in measured)))
    return _result(
        measured={f"peak@{s:g}": v for s, v in pairs},
        violations=_growth_violations(pairs, tolerance["rel_tolerance"], "peak amplifier IPs"),
    )


@invariant(
    "scale.victim_population",
    scope="scale",
    description="Ground-truth victim population grows ~linearly in scale",
    paper_anchor="§4.3 (437K victim IPs at full scale)",
    rel_tolerance=0.35,
)
def check_scale_victim_population(records, tolerance):
    pairs = [(record.scale, len(record.world.victims)) for record in records]
    return _result(
        measured={f"victims@{s:g}": v for s, v in pairs},
        violations=_growth_violations(pairs, tolerance["rel_tolerance"], "victim population"),
    )


@invariant(
    "scale.attack_count",
    scope="scale",
    description="Campaign attack count grows ~linearly in scale",
    paper_anchor="§4.3.3 (attack volume tracks the booter ecosystem's size)",
    rel_tolerance=0.35,
)
def check_scale_attack_count(records, tolerance):
    pairs = [(record.scale, len(record.world.attacks)) for record in records]
    return _result(
        measured={f"attacks@{s:g}": v for s, v in pairs},
        violations=_growth_violations(pairs, tolerance["rel_tolerance"], "attack count"),
    )


@invariant(
    "scale.observed_packets",
    scope="scale",
    description="Total observed victim packets grow roughly linearly in scale",
    paper_anchor="§4.3.3 (2.92 trillion packets at full scale)",
    rel_tolerance=0.75,
)
def check_scale_observed_packets(records, tolerance):
    pairs = []
    for record in records:
        packets = record.victim_report().total_attack_packets()
        if packets <= 0:
            return None
        pairs.append((record.scale, packets))
    return _result(
        measured={f"packets@{s:g}": v for s, v in pairs},
        violations=_growth_violations(pairs, tolerance["rel_tolerance"], "observed packets"),
    )


# ---------------------------------------------------------------------------
# Seed robustness (metamorphic: reroll randomness, aggregates stay in band)
# ---------------------------------------------------------------------------


@invariant(
    "seed.remediation_decline",
    scope="seed",
    description="Amplifier-pool decline (first->last measured week) stays in band at every seed",
    paper_anchor="§6.1 (92% IP-level reduction)",
    band=(0.40, 1.0),
)
def check_seed_remediation_decline(records, tolerance):
    lo, hi = tolerance["band"]
    measured, violations = {}, []
    judged = 0
    for record in records:
        rows = record.measured_rows()
        if len(rows) < 2:
            continue
        judged += 1
        decline = 1.0 - rows[-1].ips / rows[0].ips
        measured[f"decline@seed={record.seed}"] = round(decline, 4)
        if not lo <= decline <= hi:
            violations.append(
                f"seed {record.seed}: decline {decline:.2f} outside [{lo}, {hi}]"
            )
    if not judged:
        return None
    return _result(measured=measured, violations=violations)


@invariant(
    "seed.victim_concentration",
    scope="seed",
    description="Top-10 victim ASes hold at least the band's share of victim packets at every seed",
    paper_anchor="§4.3.2 Fig. 5 (top 100 ASes absorb ~75%)",
    min_top10_share=0.2,
)
def check_seed_victim_concentration(records, tolerance):
    floor = tolerance["min_top10_share"]
    measured, violations = {}, []
    judged = 0
    for record in records:
        concentration = record.concentration()
        if not concentration.victim_as_packets:
            continue
        judged += 1
        share = concentration.victim_ecdf.fraction_within_top(10)
        measured[f"top10@seed={record.seed}"] = round(share, 4)
        if share < floor:
            violations.append(
                f"seed {record.seed}: top-10 victim-AS share {share:.2f} < {floor}"
            )
    if not judged:
        return None
    return _result(measured=measured, violations=violations)


@invariant(
    "seed.version_demographics",
    scope="seed",
    description="Version-probe demographics (stratum-16 share, pre-2004 compile share) stay in band",
    paper_anchor="§3.3 Table 2 (stratum 16: 0.19; compiled pre-2004: 0.13)",
    stratum16_band=(0.03, 0.50),
    pre2004_band=(0.01, 0.50),
)
def check_seed_version_demographics(records, tolerance):
    s_lo, s_hi = tolerance["stratum16_band"]
    c_lo, c_hi = tolerance["pre2004_band"]
    measured, violations = {}, []
    judged = 0
    for record in records:
        report = record.version_report()
        if report is None or len(report) == 0:
            continue
        judged += 1
        stratum16 = report.stratum16_fraction()
        pre2004 = report.compile_year_cdf()[2004]
        measured[f"stratum16@seed={record.seed}"] = round(stratum16, 4)
        measured[f"pre2004@seed={record.seed}"] = round(pre2004, 4)
        if not s_lo <= stratum16 <= s_hi:
            violations.append(
                f"seed {record.seed}: stratum-16 share {stratum16:.2f} outside [{s_lo}, {s_hi}]"
            )
        if not c_lo <= pre2004 <= c_hi:
            violations.append(
                f"seed {record.seed}: pre-2004 compile share {pre2004:.2f} outside [{c_lo}, {c_hi}]"
            )
    if not judged:
        return None
    return _result(measured=measured, violations=violations)


@invariant(
    "seed.worlds_differ",
    scope="seed",
    description="Different seeds produce different raw observations (no seed is ignored)",
    paper_anchor="reproduction contract: the world is a function of (seed, params)",
)
def check_seed_worlds_differ(records, tolerance):
    if len(records) < 2:
        return None
    violations = []
    for a, b in zip(records, records[1:]):
        if a.summary_text() == b.summary_text():
            violations.append(
                f"seeds {a.seed} and {b.seed} produced byte-identical summaries"
            )
        elif a.amplifier_ip_union() == b.amplifier_ip_union():
            violations.append(
                f"seeds {a.seed} and {b.seed} observed identical amplifier-IP sets"
            )
    return _result(
        measured={"n_seeds": len(records)},
        violations=violations,
    )


@invariant(
    "seed.undersampling_band",
    scope="seed",
    description="The weekly-sampling undersampling factor stays within a loose band",
    paper_anchor="§4.2 (168h / ~44h median view window = 3.8x)",
    severity="warning",
    band=(1.0, 60.0),
)
def check_seed_undersampling(records, tolerance):
    lo, hi = tolerance["band"]
    measured, violations = {}, []
    judged = 0
    for record in records:
        factor = record.victim_report().undersampling_factor()
        if factor != factor:  # NaN: no observations at all
            continue
        judged += 1
        measured[f"undersampling@seed={record.seed}"] = round(factor, 2)
        if not lo <= factor <= hi:
            violations.append(
                f"seed {record.seed}: undersampling {factor:.1f}x outside [{lo}, {hi}]"
            )
    if not judged:
        return None
    return _result(measured=measured, violations=violations)


# ---------------------------------------------------------------------------
# Per-world contracts
# ---------------------------------------------------------------------------


@invariant(
    "world.onp_window",
    scope="world",
    description="The ONP campaign is 15 weekly monlist samples at exact one-week spacing",
    paper_anchor="§3.2 (2014-01-10 .. 2014-04-18, 15 samples)",
    n_samples=15,
)
def check_world_onp_window(record, tolerance):
    samples = record.world.onp.monlist_samples
    violations = []
    if len(samples) != tolerance["n_samples"]:
        violations.append(f"{len(samples)} monlist samples, expected {tolerance['n_samples']}")
    times = [s.t for s in samples]
    for earlier, later in zip(times, times[1:]):
        if abs((later - earlier) - WEEK) > 1.0:
            violations.append(
                f"sample spacing {later - earlier:.0f}s at t={earlier:.0f} is not one week"
            )
            break
    return _result(measured={"n_samples": len(samples)}, violations=violations)


@invariant(
    "world.isp_victims_subset",
    scope="world",
    description="Victims seen at ISP vantage points are a subset of campaign ground truth",
    paper_anchor="§7.2 (local victim forensics agree with the global campaign)",
)
def check_world_isp_victims_subset(record, tolerance):
    world = record.world
    victims = world.victims.victims
    campaign_victims = {victims[row].ip for row in world.attacks.victim.tolist()}
    measured, violations = {}, []
    for name, site in world.isp.sites.items():
        observed = set(site.victim_forensics)
        phantom = observed - campaign_victims
        measured[f"victims@{name}"] = len(observed)
        if phantom:
            violations.append(
                f"site {name}: {len(phantom)} observed victim IPs absent from the campaign"
            )
    return _result(measured=measured, violations=violations)


@invariant(
    "world.scan_onset_precedes_decline",
    scope="world",
    description="Darknet scanning is underway before the amplifier pool peaks and declines",
    paper_anchor="§5.1 Fig. 9 (scanning leads attacks by about a week)",
    max_onset_lag_days=0,
)
def check_world_scan_onset(record, tolerance):
    from repro.analysis.scanning import darknet_report

    scanners = darknet_report(record.world.darknet).daily_unique_scanners
    active_days = sorted(day for day, count in scanners.items() if count > 0)
    if not active_days:
        return None  # total sensor loss; fault accounting covers it
    measured_rows = record.measured_rows()
    if not measured_rows:
        return None
    peak_row = max(measured_rows, key=lambda row: row.ips)
    peak_day = int(peak_row.t // DAY)
    onset_day = active_days[0]
    violations = []
    if onset_day > peak_day + tolerance["max_onset_lag_days"]:
        violations.append(
            f"first darknet scan day {onset_day} is after the amplifier peak day {peak_day}"
        )
    return _result(
        measured={"scan_onset_day": onset_day, "amplifier_peak_day": peak_day},
        violations=violations,
    )


@invariant(
    "world.ovh_crossdataset",
    scope="world",
    description="The OVH event cross-validation holds: disclosed amplifier ASes overlap the ONP view, the target AS ranks at the top",
    paper_anchor="§4.4 (1291/1297 = 99.5% AS overlap; 60% packet share; rank 1)",
    min_overlap_fraction=0.35,
    max_target_rank=5,
    min_packet_share=0.05,
)
def check_world_ovh_crossdataset(record, tolerance):
    from repro.analysis.validation import validate_ovh_event

    world = record.world
    ovh = world.registry.special["HOSTING-FR-1"]
    result = validate_ovh_event(world, record.parsed(), record.concentration(), ovh.asn)
    if result.disclosed_asns == 0 or result.onp_asns == 0:
        return None  # nothing to cross-check: no event or an empty corpus
    measured = {
        "event_attacks": result.event_attacks,
        "asn_overlap_fraction": round(result.asn_overlap_fraction, 4),
        "victim_packet_share": round(result.victim_packet_share, 4),
        "target_as_rank": result.target_as_rank,
    }
    violations = []
    if result.asn_overlap_fraction < tolerance["min_overlap_fraction"]:
        violations.append(
            f"AS overlap {result.asn_overlap_fraction:.2f} < {tolerance['min_overlap_fraction']}"
        )
    if not 1 <= result.target_as_rank <= tolerance["max_target_rank"]:
        violations.append(
            f"target AS rank {result.target_as_rank} outside [1, {tolerance['max_target_rank']}]"
        )
    if result.victim_packet_share < tolerance["min_packet_share"]:
        violations.append(
            f"overlap packet share {result.victim_packet_share:.2f} < {tolerance['min_packet_share']}"
        )
    return _result(measured=measured, violations=violations)


@invariant(
    "world.quality_reconciles",
    scope="world",
    description="The injected-vs-observed quality accounting balances on every world",
    paper_anchor="§3 data caveats (every loss the apparatus suffered is accounted for)",
)
def check_world_quality_reconciles(record, tolerance):
    report = record.quality()
    violations = [check.describe() for check in report.checks if not check.ok]
    return _result(
        measured={"injected_total": report.injected_total},
        violations=violations,
    )


@invariant(
    "world.artifacts_render",
    scope="world",
    description="Every paper artifact (F1..F16, T1..T6) renders to non-empty text",
    paper_anchor="all figures/tables (the pipeline degrades, never crashes)",
)
def check_world_artifacts_render(record, tolerance):
    from repro.cli import ARTIFACTS, render_artifact

    violations = []
    for artifact_id in ARTIFACTS:
        try:
            text = render_artifact(record.world, artifact_id, context=record.ctx)
        except Exception as exc:  # noqa: BLE001 — any crash is the violation
            violations.append(f"{artifact_id} raised {type(exc).__name__}: {exc}")
            continue
        if not isinstance(text, str) or not text.strip():
            violations.append(f"{artifact_id} rendered empty output")
    return _result(measured={"n_artifacts": len(ARTIFACTS)}, violations=violations)


@invariant(
    "world.clean_world_pristine",
    scope="world",
    description="A clean-profile world has an empty injection log and zero parse losses",
    paper_anchor="determinism contract (the fault layer is a strict no-op when disabled)",
)
def check_world_clean_pristine(record, tolerance):
    if not record.is_clean:
        return None
    report = record.quality()
    stats = report.monlist_stats
    violations = []
    if report.injected_total:
        violations.append(f"clean world logged {report.injected_total} injected faults")
    if report.monlist_outages or report.monlist_partial:
        violations.append(
            f"clean world has {report.monlist_outages} outages / "
            f"{report.monlist_partial} partial sweeps"
        )
    if stats.captures_failed or stats.captures_salvaged:
        violations.append(
            f"clean world needed parse salvage ({stats.captures_salvaged} salvaged, "
            f"{stats.captures_failed} failed)"
        )
    if report.darknet_down_days or report.arbor_missing_days:
        violations.append("clean world recorded sensor downtime")
    return _result(measured={"injected_total": report.injected_total}, violations=violations)


@invariant(
    "world.streaming_matches_batch",
    scope="world",
    description=(
        "End-of-window streaming aggregates equal the batch answers: exact "
        "windowed counts, sketch top-K within declared error bounds, replay "
        "fully accounted"
    ),
    paper_anchor="AMON follow-on architecture (online views agree with batch)",
    isp_bytes_rel_tol=1e-9,
)
def check_world_streaming_matches_batch(record, tolerance):
    from repro.analysis import queries
    from repro.stream import StreamEngine, replay_plan, replay_records

    world = record.world
    plan = replay_plan(world)
    engine = StreamEngine.for_world(world, plan=plan)
    engine.ingest_many(replay_records(world))
    engine.close()
    violations = []

    # 1. Replay accounting: the adapter emits in-order and deduplicated,
    # so *every* record must land applied — late/duplicate would mean the
    # engine dropped data the ledger cannot explain.
    ingest = engine.query_ingest()
    if not engine.balanced:
        violations.append("ingest ledger unbalanced (total != applied + late + duplicate)")
    for kind, acc in ingest["kinds"].items():
        if acc["late"] or acc["duplicate"]:
            violations.append(
                f"in-order replay produced {acc['late']} late / "
                f"{acc['duplicate']} duplicate {kind} records"
            )
        if acc["total"] != plan["expected"][kind]:
            violations.append(
                f"{kind}: replay delivered {acc['total']} records, "
                f"plan expected {plan['expected'][kind]}"
            )

    # 2. Weekly capture windows: every count the batch victimology and
    # parse layer produce, integer for integer.
    exact_keys = (
        "captures",
        "amplifiers",
        "victim_pairs",
        "unique_victims",
        "victim_packets",
        "scanner_entries",
        "non_victim_entries",
        "median_view_hours",
    )
    stream_rows = {r["window"]: r for r in engine.query("victims")["windows"]}
    window_of = engine.windows["capture"].windows.index_of
    for i, batch_row in enumerate(queries.capture_window_answers(record.ctx)):
        stream_row = stream_rows.pop(window_of(batch_row["t"]), None)
        if stream_row is None:
            # An outage week delivers zero capture records, so no window
            # opens; the batch sample must be empty too.
            if batch_row["captures"]:
                violations.append(
                    f"sample {i} (t={batch_row['t']:.0f}): no streaming window "
                    f"for {batch_row['captures']} captures"
                )
            continue
        for key in exact_keys:
            if stream_row[key] != batch_row[key]:
                violations.append(
                    f"sample {i} {key}: streaming {stream_row[key]} "
                    f"!= batch {batch_row[key]}"
                )
        if stream_row["stats"] != batch_row["stats"]:
            diffs = [
                k for k, v in batch_row["stats"].items()
                if stream_row["stats"].get(k) != v
            ]
            violations.append(f"sample {i} parse stats differ on {diffs}")
    for index, stream_row in stream_rows.items():
        violations.append(
            f"streaming window {index} ({stream_row['captures']} captures) "
            "matches no batch sample"
        )

    # 3. Fault-drift reconciliation: the stream-global ParseStats must
    # equal the quality report's corpus stats — which
    # world.quality_reconciles ties back to the injection log, so every
    # fault-induced loss the stream saw is the same loss the log explains.
    quality_stats = record.quality().monlist_stats
    for name, value in engine.query_parse_stats().items():
        expected = getattr(quality_stats, name)
        if value != expected:
            violations.append(
                f"stream-global {name}={value} != quality report {expected}"
            )

    # 4. Daily flow windows: darknet scanner counts and Arbor fractions
    # exactly, ISP byte sums within float tolerance (same addends, a
    # different summation order).
    batch_scanners = {int(d): c for d, c in queries.daily_scanner_counts(world).items()}
    stream_scanners = {
        r["window"]: r["scanners"] for r in engine.query("scanners")["windows"]
    }
    if stream_scanners != batch_scanners:
        diff_days = {
            d for d in set(batch_scanners) | set(stream_scanners)
            if batch_scanners.get(d) != stream_scanners.get(d)
        }
        violations.append(f"darknet daily scanner counts differ on days {sorted(diff_days)[:5]}")
    batch_traffic = queries.daily_traffic_answers(world)
    stream_traffic = {
        r["window"]: (r["ntp_frac"], r["dns_frac"])
        for r in engine.query("traffic")["windows"]
    }
    if stream_traffic != batch_traffic:
        violations.append("daily traffic fractions differ from batch")
    rel_tol = tolerance["isp_bytes_rel_tol"]
    batch_isp = queries.isp_day_answers(world)
    stream_isp = {i: s for i, _lo, _hi, s, _open in engine.summaries("isp")}
    if set(batch_isp) != set(stream_isp):
        violations.append(
            f"ISP day coverage differs: batch {len(batch_isp)} days, "
            f"streaming {len(stream_isp)}"
        )
    for day in set(batch_isp) & set(stream_isp):
        b, s = batch_isp[day], stream_isp[day]
        if s["cells"] != b["cells"] or s["victims"] != b["victims"]:
            violations.append(f"ISP day {day} cell/victim counts differ")
        elif abs(s["bytes"] - b["bytes"]) > rel_tol * max(1.0, abs(b["bytes"])):
            violations.append(f"ISP day {day} bytes drift beyond {rel_tol:g} relative")

    # 5. Sketches vs ground truth, against their *declared* bounds: the
    # count-min estimate never under-counts and over-counts by at most
    # eps * total; space-saving guarantees every key heavier than
    # total/capacity a slot, with count in [true, true + error].
    truth_by_sketch = {
        "victim_packets": queries.victim_packet_totals(record.ctx),
        "as_packets": queries.victim_as_packet_totals(record.ctx),
        "amplifier_entries": queries.amplifier_entry_totals(record.ctx),
        "isp_victim_bytes": queries.isp_victim_byte_totals(world),
    }
    for sketch_name, truth in truth_by_sketch.items():
        exact = sketch_name != "isp_victim_bytes"
        slack = 0 if exact else rel_tol * max(1.0, sum(map(abs, truth.values())))
        cm = engine.sketches[sketch_name]["cm"]
        total_true = sum(truth.values())
        if abs(cm.total - total_true) > slack:
            violations.append(
                f"{sketch_name}: count-min total {cm.total} != batch {total_true}"
            )
        bound = cm.error_bound()
        cm_bad = sum(
            1 for key, true in truth.items()
            if not (true - slack <= cm.estimate(key) <= true + bound + slack)
        )
        if cm_bad:
            violations.append(
                f"{sketch_name}: {cm_bad} keys outside the count-min bound"
            )
        topk = engine.sketches[sketch_name]["topk"]
        threshold = topk.guarantee_threshold()
        for key, true in truth.items():
            if true <= threshold + slack:
                continue
            if key not in topk.counters:
                violations.append(
                    f"{sketch_name}: heavy hitter {key} "
                    f"(true {true} > threshold {threshold:.1f}) not tracked"
                )
                continue
            count, error = topk.counters[key], topk.errors[key]
            if not (true - slack <= count <= true + error + slack):
                violations.append(
                    f"{sketch_name}: tracked key {key} count {count} outside "
                    f"[{true}, {true} + {error}]"
                )

    return _result(
        measured={
            "records": engine.records_seen,
            "capture_windows": len(engine.windows["capture"].closed),
            "victim_pairs": engine.totals["victim_pairs"],
            "cm_error_bound_victims": engine.sketches["victim_packets"]["cm"].error_bound(),
            "topk_threshold_victims": engine.sketches["victim_packets"]["topk"].guarantee_threshold(),
        },
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Fault-overlay soundness (metamorphic: degrade the apparatus)
# ---------------------------------------------------------------------------


@invariant(
    "fault.ground_truth_invariant",
    scope="fault",
    description="Clean and faulted worlds at the same (seed, scale) share identical ground truth",
    paper_anchor="fault model contract (injection happens at the measurement boundary only)",
)
def check_fault_ground_truth(clean, faulted, tolerance):
    violations = []
    for label, fn in (
        ("host records", lambda r: len(r.world.hosts)),
        ("victims", lambda r: len(r.world.victims)),
        ("attacks", lambda r: len(r.world.attacks)),
        ("scan sweeps", lambda r: len(r.world.sweeps)),
    ):
        a, b = fn(clean), fn(faulted)
        if a != b:
            violations.append(f"{label}: clean {a} != {faulted.fault_name} {b}")
    clean_attacks, faulted_attacks = clean.world.attacks, faulted.world.attacks
    if clean_attacks and faulted_attacks:
        clean_starts, faulted_starts = clean_attacks.start, faulted_attacks.start
        if clean_starts[0] != faulted_starts[0] or clean_starts[-1] != faulted_starts[-1]:
            violations.append("attack campaign timeline differs between clean and faulted")
        # Left to right: a float sum's last digits depend on its order, and
        # the violation message prints it.
        clean_bps = sum(clean_attacks.target_bps.tolist())
        faulted_bps = sum(faulted_attacks.target_bps.tolist())
        if clean_bps != faulted_bps:
            violations.append(
                f"campaign volume differs: clean {clean_bps:.6g} != faulted {faulted_bps:.6g}"
            )
    return _result(
        measured={"attacks": len(clean_attacks)},
        violations=violations,
    )


@invariant(
    "fault.observed_divergence_bounded",
    scope="fault",
    description="A faulted apparatus loses observations within bounds — it never invents a pool",
    paper_anchor="§3 caveats (losses shrink the view; salvage must not fabricate it)",
    min_retained_fraction=0.25,
    fabrication_slack=5,
)
def check_fault_observed_divergence(clean, faulted, tolerance):
    clean_unique = clean.unique_amplifier_ips()
    faulted_unique = faulted.unique_amplifier_ips()
    measured = {"clean_unique": clean_unique, "faulted_unique": faulted_unique}
    if clean_unique == 0:
        return _result(measured=measured, violations=["clean world observed no amplifiers"])
    violations = []
    # Bit corruption can mint a handful of phantom addresses; allow slack,
    # never growth.
    ceiling = clean_unique + tolerance["fabrication_slack"]
    if faulted_unique > ceiling:
        violations.append(
            f"faulted world observed {faulted_unique} unique amplifiers > "
            f"clean {clean_unique} + slack {tolerance['fabrication_slack']}"
        )
    floor = tolerance["min_retained_fraction"] * clean_unique
    if faulted_unique < floor:
        violations.append(
            f"faulted world retained {faulted_unique}/{clean_unique} unique amplifiers "
            f"(< {tolerance['min_retained_fraction']:.0%})"
        )
    clean_captures = clean.quality().monlist_stats.captures_total
    faulted_captures = faulted.quality().monlist_stats.captures_total
    if faulted_captures > clean_captures:
        violations.append(
            f"faulted apparatus captured more responses ({faulted_captures}) "
            f"than the clean one ({clean_captures})"
        )
    return _result(measured=measured, violations=violations)


@invariant(
    "fault.datasets_diverge",
    scope="fault",
    description="A non-empty fault profile observably degrades at least one dataset",
    paper_anchor="fault model contract (injected faults leave evidence)",
)
def check_fault_datasets_diverge(clean, faulted, tolerance):
    log = faulted.world.fault_log
    injected = log.total if log is not None else 0
    if injected == 0:
        return None  # the profile never fired (tiny world, low rates): nothing to diverge
    report = faulted.quality()
    stats = report.monlist_stats
    footprint = (
        report.monlist_outages
        + report.monlist_partial
        + report.version_outages
        + report.version_partial
        + report.darknet_down_days
        + report.arbor_missing_days
        + stats.captures_salvaged
        + stats.captures_failed
        + stats.packets_duplicate
        + stats.packets_out_of_sequence
        + stats.packets_undecodable
        + stats.packets_invalid
    )
    same_bytes = faulted.summary_text() == clean.summary_text()
    violations = []
    if footprint == 0 and same_bytes:
        violations.append(
            f"{injected} faults injected but no dataset shows degradation evidence"
        )
    return _result(
        measured={"injected": injected, "observable_footprint": footprint},
        violations=violations,
    )
