"""Reach audit: ``PYTHONPATH=src python tests/reach.py`` from the repository root.

Runs every command, ``serve`` and the examples at ``--jobs 1`` in fresh
interpreters under a ``sys.setprofile`` hook, keys each ``def`` under
``src/repro`` on its first decorator line (what ``co_firstlineno`` holds),
and prints each function no run entered with its line count and verdict.
Exits 1 on an unreached function with no verdict, a verdict outside
``CATEGORIES``, or a verdict naming a function that is gone or reached.
Writes only to a temporary directory.
"""

import ast
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Why it stays: a test checks production against or through it (oracle);
#: only benchmarks/ or a test of a paper number calls it (benchmark, claim);
#: perf/ calls it; no command reaches it on one CPU (path).
CATEGORIES = ("oracle", "benchmark", "claim", "perf", "path")

#: ``{"module:qualname": reason}`` for every function no command reaches.
VERDICTS = {name: reason for reason, *names in [
    (
        "benchmark: benchmarks/test_fig04_amplification.py (Fig 4a rank curve)",
        "repro.analysis.amplification:aggregate_bytes_per_amplifier",
        "repro.util.stats:rank_series",
    ),
    (
        "benchmark: benchmarks/test_fig04_amplification.py (the §3.4 mega census)",
        "repro.analysis.amplification:mega_amplifier_census",
    ),
    (
        "benchmark: the per-amplifier reply columns that Fig 4a's rank curve and the mega "
        "census in benchmarks/test_fig04_amplification.py group",
        "repro.analysis.amplification:_amplifier_replies",
    ),
    (
        "benchmark: benchmarks/test_ablations.py (on-wire vs payload BAF)",
        "repro.analysis.amplification:on_wire_baf",
        "repro.analysis.amplification:payload_baf",
    ),
    (
        "benchmark: benchmarks/test_table1_populations.py",
        "repro.analysis.churn:ChurnReport.discovers_new_every_sample",
    ),
    (
        "benchmark: benchmarks/test_fig05_as_concentration.py prints it",
        "repro.analysis.concentration:ConcentrationReport.top_victim_ases",
    ),
    (
        "perf: perf/batch.py and perf/ingest.py warm the context; render_many warms it only "
        "before a pooled render",
        "repro.analysis.context:AnalysisContext.warm",
    ),
    (
        "path: concat of a corpus with no monlist samples; "
        "test_degradation_render::test_summary_survives_empty_monlist_corpus",
        "repro.analysis.event_columns:EventColumns.empty",
    ),
    (
        "benchmark: benchmarks/test_fig16_common_scanners.py (§7 TTL forensics)",
        "repro.analysis.local:TtlForensics.attackers_look_windows",
        "repro.analysis.local:TtlForensics.scanners_look_linux",
    ),
    (
        "benchmark: benchmarks/test_table5_local_amplifiers.py",
        "repro.analysis.local:coordination_report",
    ),
    (
        "path: T3's note when no capture in the sample holds a probe-topped table; "
        "test_degradation_render::test_table3_note_when_no_table_is_probe_topped",
        "repro.analysis.monlist_parse:ParseStats.captures_parsed",
        "repro.measurement.onp:OnpSample.date",
    ),
    (
        "oracle: test_wire_fuzz, test_decode_fast and test_faults_chaos read the parse ledger "
        "through it",
        "repro.analysis.monlist_parse:ParseStats.degraded",
    ),
    (
        "oracle: the strict parser's table; test_analysis_monlist checks the strict parse of "
        "small and mega replies through them",
        "repro.analysis.monlist_parse:ReconstructedTable.__len__",
        "repro.analysis.monlist_parse:ReconstructedTable.is_mega",
        "repro.analysis.monlist_parse:ReconstructedTable.total_on_wire_bytes",
        "repro.analysis.monlist_parse:ReconstructedTable.total_packets",
    ),
    (
        "oracle: the strict reference parser; test_analysis_monlist, test_decode_fast and "
        "test_wire_fuzz check decoding against it",
        "repro.analysis.monlist_parse:reconstruct_table",
    ),
    (
        "benchmark: benchmarks/test_fig10_remediation_pools.py (§6.2 DNS overlap)",
        "repro.analysis.remediation:overlap_with_dns",
        "repro.population.dns_resolvers:DnsResolverPool.overlap_with_monlist",
    ),
    (
        "benchmark: benchmarks/test_fig03_amplifier_counts.py (the Merit and CSU subsets)",
        "repro.analysis.remediation:subset_counts",
    ),
    (
        "benchmark: benchmarks/test_fig10_remediation_pools.py",
        "repro.analysis.remediation:weeks_since",
    ),
    (
        "benchmark: benchmarks/test_fig08_darknet_volume.py (the scanning rise)",
        "repro.analysis.scanning:ScanningReport.monthly_totals",
        "repro.analysis.scanning:ScanningReport.rise_factor",
    ),
    (
        "claim: test_analysis_victimology::test_amplifiers_per_victim_declines (the §6.3 "
        "decline)",
        "repro.analysis.victimology:VictimologyReport.amplifiers_per_victim",
    ),
    (
        "oracle: test_faults reads injected-fault counts through it",
        "repro.faults:InjectionLog.get",
    ),
    (
        "path: a monitor table past twice its capacity, replayed row by row through a "
        "MonlistTable (seed 7 at scale 0.05 prunes 28 times); test_onp_store prunes with tiny "
        "tables, test_ntp_monlist::test_batch_encode_equals_table_render reads the records",
        "repro.measurement.amplifier_state:MonitorTableStore._replay",
        "repro.ntp.monlist:MonlistRecord.observe",
        "repro.ntp.monlist:MonlistTable.put_record",
        "repro.ntp.monlist:MonlistTable.records",
    ),
    (
        "claim: test_measurement_arbor::test_total_attacks_scale",
        "repro.measurement.arbor:MonthlyAttackStats.total_attacks",
    ),
    (
        "claim: test_measurement_onp::test_mega_replies_not_materialized (§3.4: a reply over 1 "
        "GB)",
        "repro.measurement.capture_store:_CaptureView.total_payload_bytes",
    ),
    (
        "path: spill past REPRO_SPILL_MB; test_supervision and test_spill_and_parse_cache",
        "repro.measurement.capture_store:_pid_alive",
        "repro.measurement.capture_store:map_spill",
        "repro.measurement.capture_store:sweep_stale_spills",
        "repro.measurement.capture_store:write_spill",
    ),
    (
        "oracle: tests/strategies.lenient_parse and test_measurement_onp read a sample's "
        "captures as views (benchmarks/test_table2_os_strings.py and test_ablations.py too)",
        "repro.measurement.onp:OnpSample.captures",
    ),
    (
        "claim: test_measurement_onp::test_responders_only_answer_probed_implementation (§3.1: "
        "one implementation code per probe)",
        "repro.measurement.onp:OnpDataset.monlist_unique_ips",
    ),
    (
        "oracle: test_analysis_monlist and test_pipeline_context compare amplifier_ips() with "
        "it",
        "repro.measurement.onp:OnpSample.responder_ips",
    ),
    (
        "benchmark: payload_baf reads it off a raw capture; "
        "test_analysis_amplification::test_payload_baf_exceeds_on_wire_baf",
        "repro.measurement.onp:ProbeCapture.total_payload_bytes",
    ),
    (
        "benchmark: benchmarks/test_mitigation_counterfactuals.py (ROADMAP item 3 registers or "
        "deletes mitigation/)",
        "repro.mitigation.bcp38:Bcp38Policy.__post_init__",
        "repro.mitigation.bcp38:Bcp38Policy.blocks",
        "repro.mitigation.bcp38:filter_attacks",
        "repro.mitigation.notification:NotificationCampaign.__post_init__",
        "repro.mitigation.notification:NotificationCampaign.average_boost_after",
        "repro.mitigation.notification:NotificationCampaign.kuhrer_style",
        "repro.mitigation.notification:NotificationWave.__post_init__",
        "repro.mitigation.notification:_dampen_curve",
        "repro.mitigation.notification:notified_remediation_model",
        "repro.mitigation.ratelimit:RateLimitResult.dropped_fraction",
        "repro.mitigation.ratelimit:apply_rate_limit",
    ),
    (
        "oracle: test_net_asn::test_registry_size counts the registry through it",
        "repro.net.asn:ASRegistry.__len__",
    ),
    (
        "oracle: test_net_asn::test_every_as_has_prefixes checks each AS's address space "
        "through it",
        "repro.net.asn:AutonomousSystem.n_addresses",
    ),
    (
        "oracle: test_net_ipv4 round-trips prefixes through it; assertion messages print "
        "prefixes with it",
        "repro.net.ipv4:Prefix.__str__",
    ),
    (
        "oracle: test_net_ipv4::test_prefix_membership_matches_helper checks Prefix.contains "
        "against ip_in_prefix",
        "repro.net.ipv4:Prefix.contains",
        "repro.net.ipv4:ip_in_prefix",
    ),
    (
        "oracle: test_net_asn::test_reserved_pools_untouched checks the registry's allocations "
        "with it",
        "repro.net.ipv4:Prefix.contains_prefix",
    ),
    (
        "oracle: test_ntp_monlist, test_ntp_server and test_measurement_state read monitor "
        "tables through it",
        "repro.ntp.monlist:MonlistTable.__contains__",
        "repro.ntp.monlist:MonlistTable.__len__",
        "repro.ntp.monlist:MonlistTable.get",
        "repro.ntp.monlist:MonlistTable.n_tracked",
    ),
    (
        "path: the lazy prune once a table tracks over twice its capacity; "
        "test_ntp_monlist::test_lazy_prune_bounds_memory",
        "repro.ntp.monlist:MonlistTable._prune",
    ),
    (
        "path: a daemon restart on the protocol path (NtpServer.maybe_flush); "
        "test_ntp_server::test_restart_flushes_table, and the per-host sync in "
        "tests/onp_oracle.py reads the next boundary",
        "repro.ntp.monlist:MonlistTable.clear",
        "repro.ntp.server:NtpServer.next_flush",
    ),
    (
        "oracle: test_pipeline_context::_reference_render renders tables through it",
        "repro.ntp.monlist:MonlistTable.entries_mru",
        "repro.ntp.wire:encode_monitor_entry",
    ),
    (
        "oracle: the per-entry struct.pack encoder; test_pipeline_context::_reference_render "
        "pins the batch reply encoder against it, test_ntp_wire round-trips through it",
        "repro.ntp.wire:_clamp_u32",
        "repro.ntp.wire:encode_mode7_response",
        "repro.ntp.wire:encode_mode7_response_raw",
        "repro.ntp.wire:encode_monitor_fields",
    ),
    (
        "oracle: test_ntp_server::test_handle_datagram_dispatch and test_ntp_wire build the "
        "READVAR probe with it",
        "repro.ntp.wire:encode_mode6_request",
    ),
    (
        "path: the version decode's tokenizer for a body in any form but the canonical one, "
        "which no command's corpus holds (the apparatus never mangles a mode-6 reply); "
        "test_analysis_versions's hostile corpora, and tests.strategies.parse_version_captures",
        "repro.ntp.variables:parse_system_variables",
    ),
    (
        "path: NtpServer.handle_datagram's READVAR branch (test_ntp_server::"
        "test_handle_datagram_dispatch); tests.strategies.parse_version_captures decodes "
        "through it",
        "repro.ntp.wire:decode_mode6",
    ),
    (
        "claim: test_population_pools::test_pool_sizes_scale (6M hosts x scale)",
        "repro.population.amplifiers:HostPool.host_count_alive",
        "repro.population.amplifiers:_LivenessIndex.count_alive",
        "repro.population.amplifiers:_exists_end",
    ),
    (
        "benchmark: benchmarks/test_ablations.py (dual-implementation probing)",
        "repro.population.amplifiers:NtpHost.answers_implementation",
    ),
    (
        "oracle: the per-host ONP sweep in tests/onp_oracle.py walks version hosts as "
        "objects and sizes client sets; test_perf_equivalence and test_population_pools too",
        "repro.population.amplifiers:BackgroundClients.__len__",
        "repro.population.amplifiers:HostPool.version_alive",
    ),
    (
        "oracle: test_pipeline_context::test_liveness_limit_equals_prefix_filter checks "
        "_LivenessIndex against them (benchmarks/test_ablations.py too)",
        "repro.population.amplifiers:NtpHost.exists_at",
        "repro.population.amplifiers:NtpHost.monlist_active",
    ),
    (
        "path: a host block pickled back from a pool worker; test_build_shards builds at jobs 2",
        "repro.population.amplifiers:_HostBlock.__reduce__",
    ),
    (
        "path: a host table turned back into hosts, for a host block pickled back from a pool "
        "worker and on a checkpoint resume; test_build_shards, test_supervision and "
        "test_packed_world",
        "repro.population.amplifiers:FieldColumns.decoded",
        "repro.population.amplifiers:HostTable.decoded",
        "repro.population.amplifiers:HostTable.unpack",
    ),
    (
        "benchmark: mitigation's _dampen_curve reads the curve's span "
        "(benchmarks/test_mitigation_counterfactuals.py); test_property_invariants reads start",
        "repro.population.remediation:SurvivalCurve.end",
        "repro.population.remediation:SurvivalCurve.start",
    ),
    (
        "path: value_at past a curve's last anchor; test_population_remediation and "
        "test_property_invariants",
        "repro.population.remediation:SurvivalCurve.floor",
    ),
    (
        "claim: test_population_remediation::test_monlist_curve_matches_paper_anchors",
        "repro.population.remediation:monlist_survival_curve",
    ),
    (
        "oracle: test_perf_equivalence::test_victim_index_matches_naive_scan and "
        "test_population_pools read the victim index through it",
        "repro.population.victims:VictimPool.active_at",
        "repro.population.victims:VictimPool.sample_active",
    ),
    (
        "path: a cache file in another layout misses on its first bytes; "
        "test_packed_world::test_one_pickle_file_misses_without_unpickling",
        "repro.scenario.cache:_layout_of",
    ),
    (
        "perf: perf/common.py builds and caches its worlds with it (benchmarks/conftest.py too)",
        "repro.scenario.cache:build_world_cached",
        "repro.scenario.cache:cached_world_path",
    ),
    (
        "path: resuming an interrupted build from its checkpoint; test_supervision and "
        "test_packed_world",
        "repro.scenario.checkpoint:_phase_mismatch",
        "repro.scenario.checkpoint:_unpack_state",
        "repro.scenario.world:AttackTable.unpack",
        "repro.scenario.world:unpack_population",
    ),
    (
        "path: names a late or duplicate row when ingest rejects it; test_stream_properties",
        "repro.stream.replay:RecordBatch.uid",
    ),
    (
        "path: a request the service refuses (400, 431); "
        "test_stream_service::test_unframeable_request_is_refused_once_and_closes",
        "repro.stream.service:StreamService._refuse",
    ),
    (
        "oracle: test_stream_properties compares add_many and the engine's sketches with the "
        "scalar add and equality",
        "repro.stream.sketches:CountMinSketch.__eq__",
        "repro.stream.sketches:CountMinSketch.add",
        "repro.stream.sketches:SpaceSavingTopK.__eq__",
        "repro.stream.sketches:SpaceSavingTopK._weakest",
        "repro.stream.sketches:SpaceSavingTopK.add",
    ),
    (
        "oracle: test_stream_properties checks index_of against it",
        "repro.stream.windows:TumblingWindows.contains",
    ),
    (
        "oracle: test_telescope::test_coverage_is_deterministic_per_month reads the darknet's "
        "pool through it",
        "repro.telescope.darknet:Ipv4Darknet.pool",
    ),
    (
        "claim: test_telescope::test_ipv6_darknet_negative_result (the paper's IPv6 negative "
        "result)",
        "repro.telescope.darknet:Ipv6Darknet.monthly_packets",
        "repro.telescope.darknet:Ipv6Darknet.scanning_evidence",
    ),
    (
        "path: REPRO_CHAOS in pool workers; test_supervision",
        "repro.util.chaos:ChaosMonkey.__init__",
        "repro.util.chaos:ChaosMonkey._uniform",
        "repro.util.chaos:ChaosMonkey.decide",
        "repro.util.chaos:ChaosMonkey.unleash",
        "repro.util.chaos:chaos_from_env",
        "repro.util.chaos:parse_chaos_spec",
    ),
    (
        "path: supervised fork-pool workers (jobs > 1 on more than one CPU); test_supervision "
        "and test_build_shards",
        "repro.util.pool:ShardRunner._map_supervised",
        "repro.util.pool:_WorkerSlot.__init__",
        "repro.util.pool:_supervised_worker",
        "repro.util.pool:_trap_sigterm",
        "repro.util.pool:_untrap_sigterm",
    ),
    (
        "path: names the faulted cell in a fault.ground_truth_invariant violation; "
        "test_verify_conformance::test_fault_ground_truth_violation_names_the_profile",
        "repro.verify.runner:WorldRecord.fault_name",
    ),
] for name in names}

#: Runs ``-m MODULE args`` or ``SCRIPT args`` hooked; dumps entered code to argv[1].
CHILD = """
import atexit, json, runpy, sys, threading
out, codes = sys.argv[1], set()
def hook(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)
def dump():
    sys.setprofile(None)
    with open(out, "w") as fh:
        json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in codes}), fh)
atexit.register(dump)
threading.setprofile(hook)
sys.setprofile(hook)
if sys.argv[2] == "-m":
    sys.argv = sys.argv[3:]
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
else:
    sys.argv = sys.argv[2:]
    runpy.run_path(sys.argv[0], run_name="__main__")
"""


def functions(package):
    """``{(file, key line): (module:qualname, lines)}`` for each ``def`` in ``package``."""
    found = {}
    for path in sorted(Path(package).rglob("*.py")):
        parts = path.relative_to(Path(package).parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    found[(os.path.realpath(path), line)] = (
                        f"{module}:{prefix}{child.name}", child.end_lineno - line + 1)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                else:
                    walk(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def spawn(argv, out, env, **popen):
    """Start ``argv`` (``-m MODULE ...`` or ``SCRIPT ...``) under the hook."""
    return subprocess.Popen([sys.executable, "-c", CHILD, out, *argv], env=env, **popen)


def entered(out):
    """The ``(file, first line)`` pairs a finished child wrote."""
    with open(out) as fh:
        return {(os.path.realpath(f), line) for f, line in json.load(fh)}


def audit(found, reached, verdicts):
    """``(report lines, error lines)`` for the unreached functions."""
    hit = {found[key][0] for key in reached if key in found}
    report, errors = [], []
    for name, lines in sorted(v for k, v in found.items() if k not in reached):
        outer = name.rsplit(".<locals>.", 1)[0]
        if outer != name and outer not in hit:
            continue  # covered by its enclosing function's verdict
        reason = verdicts.get(name)
        report.append(f"{lines:5d}  {name}  {reason or '-- NO VERDICT'}")
        if reason is None:
            errors.append(f"unreached with no verdict: {name}")
        elif reason.split(":", 1)[0] not in CATEGORIES:
            errors.append(f"verdict category not in {CATEGORIES}: {name}")
    gone = set(verdicts) - {name for name, _ in found.values()}
    errors += [f"stale verdict, no such function: {n}" for n in sorted(gone)]
    errors += [f"stale verdict, the trace reached it: {n}" for n in sorted(set(verdicts) & hit)]
    return report, errors


def commands(tmp):
    """Every command and example (``--preset tiny`` is scale 0.0005: a cache hit)."""
    r, cache, cell = ["-m", "repro"], ["--cache", f"{tmp}/world.pkl"], ["--jobs", "1", "--quiet"]
    world, jobs = ["--scale", "0.0005", "--seed", "7"], ["--jobs", "1"]
    verify = [*r, "verify-world", "--seeds", "7,99", "--scales", "0.0003,0.0005"]
    return [
        [*r, "render", "--all", "--out-dir", f"{tmp}/miss", *world, *jobs, *cache],
        [*r, "render", "--all", "--out-dir", f"{tmp}/hit", *world, *jobs, *cache],
        [*r, "render", "--all", "--out-dir", f"{tmp}/ck", *world, *jobs, "--checkpoint", f"{tmp}/ck"],
        [*r, "summary", "--timings", *world, *cache],
        [*r, "validate", "--preset", "tiny", "--seed", "7", *cache, "--quiet"],
        [*r, "quality", *world, "--faults", "hostile", "--quiet"],
        [*r, "list"],
        [*r, "figure", "F1", "F9", *world, *cache, *cell],
        [*r, "table", "T2", "T3", *world, *cache, *cell],
        [*verify, "--faults", "clean", "--report", f"{tmp}/conformance.json", *cell],
        [*verify[:4], "7", "--scales", "0.0005", "--faults", "clean,hostile", *cell],
        [*r, "verify-manifest", *cell],
        [*r, "verify-manifest", "--write", "--manifest", f"{tmp}/manifest.json", *cell],
        ["examples/quickstart.py", "0.0005", "7"],
        ["examples/victim_watch.py", "0.0005"],
        ["examples/remediation_race.py", "0.0005"],
        ["examples/amplification_lab.py"],
        ["examples/monlist_forensics.py"],
    ]


def serve(tmp, env, outs):
    """``serve``: each query twice (cache miss, hit), ``/health``, ``/stats``, ``stream-query``."""
    outs += [f"{tmp}/serve.json", f"{tmp}/query.json"]
    argv = ["-m", "repro", "serve", "--port", "0", "--pace", "0", "--scale", "0.0005", "--seed", "7"]
    proc = spawn([*argv, "--cache", f"{tmp}/world.pkl"], outs[-2], env, cwd=ROOT,
                 stdout=subprocess.PIPE, text=True)
    try:
        serving = json.loads(proc.stdout.readline())["serving"]
        conn = http.client.HTTPConnection("127.0.0.1", serving["port"], timeout=120)

        def get(path):
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())

        while not get("/health")["ingest_done"]:
            time.sleep(0.1)
        for path in [f"/query/{q}" for q in serving["queries"] for _ in "12"] + ["/health", "/stats"]:
            get(path)
        conn.close()
        query = ["-m", "repro", "stream-query", "health", "--url", f"http://127.0.0.1:{serving['port']}"]
        if spawn(query, outs[-1], env, cwd=ROOT, stdout=subprocess.DEVNULL).wait(300):
            raise SystemExit("stream-query failed")
    finally:
        proc.send_signal(signal.SIGTERM)
        drained = proc.stdout.read()
        proc.wait(300)
    if '"drained"' not in drained:
        raise SystemExit(f"serve did not drain: {drained!r}")


def main():
    # stream-query's urllib would send even a localhost request through a proxy.
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    started, outs = time.monotonic(), []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for i, argv in enumerate(commands(tmp)):
            outs.append(f"{tmp}/{i}.json")
            if spawn(argv, outs[-1], env, cwd=ROOT, stdout=subprocess.DEVNULL).wait():
                raise SystemExit(f"failed: {' '.join(argv)}")
            if i == 0:
                serve(tmp, env, outs)
        reached = set().union(*map(entered, outs))
    found = functions(SRC / "repro")
    report, errors = audit(found, reached, VERDICTS)
    lines = sum(int(line.split()[0]) for line in report)
    print("\n".join(report))
    print(f"{len(report)} of {len(found)} functions unreached ({lines} lines); "
          f"{len(outs)} runs in {time.monotonic() - started:.0f} s")
    print("\n".join(errors) or "every unreached function has a verdict")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
