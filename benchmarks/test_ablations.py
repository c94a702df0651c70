"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **On-wire vs payload BAF** — the paper computes BAF over on-wire bytes
   (84-byte minimum frames), deliberately lower than Rossow's UDP-payload
   ratio; quantify the gap.
2. **Implementation-code coverage** — the ONP scans probed only one of the
   two monlist implementation codes; probing both recovers the hidden
   v1-only amplifiers (Kührer saw ~9% more from a second vantage).
3. **Exact MRU maintenance** — victim recovery depends on maintaining real
   monitor tables; a naive "latest attack only" table loses victims.
"""

from repro.analysis import on_wire_baf, payload_baf
from repro.ntp.constants import IMPL_XNTPD, IMPL_XNTPD_OLD


def test_ablation_onwire_vs_payload_baf(benchmark, parsed_monlist):
    tables = parsed_monlist[0].tables

    def compute():
        return [(on_wire_baf(t), payload_baf(t)) for t in tables]

    pairs = benchmark(compute)
    # The payload ratio always exceeds the on-wire ratio: the 8-byte query
    # payload understates the query's real cost on the wire by >10x.
    assert all(p > w for w, p in pairs)
    ratio = sorted(p / w for w, p in pairs)[len(pairs) // 2]
    assert ratio > 4  # typical gap between the two definitions
    print(f"\nAblation BAF: median payload/on-wire ratio = {ratio:.1f}")


def test_ablation_dual_implementation_probing(benchmark, world):
    """Probing both implementation codes recovers the v1-only amplifiers."""
    t = world.onp.monlist_samples[0].t

    def count_pools():
        alive = [h for h in world.hosts.monlist_hosts if h.monlist_active(t)]
        v2 = sum(1 for h in alive if h.answers_implementation(IMPL_XNTPD))
        both = sum(
            1
            for h in alive
            if h.answers_implementation(IMPL_XNTPD)
            or h.answers_implementation(IMPL_XNTPD_OLD)
        )
        return v2, both

    v2_only_view, dual_view = benchmark(count_pools)
    gain = dual_view / v2_only_view - 1.0
    # Kührer's second vantage found ~9% more; our hidden share is the
    # v1-only implementation mix (~10%).
    assert 0.04 < gain < 0.25
    print(f"\nAblation impl: dual-code probing finds {100 * gain:.1f}% more amplifiers")


def test_ablation_mru_fidelity(benchmark, world):
    """Victims per table: the MRU table accumulates multiple victims per
    amplifier; keeping only the most recent client (a degenerate table)
    would lose most of the victimology."""
    sample = world.onp.monlist_samples[6]

    def victims_lost():
        from repro.analysis import CLASS_VICTIM, classify_entry, reconstruct_table

        full = set()
        degenerate = set()
        for capture in sample.captures:
            table = reconstruct_table(capture)
            victims = [e for e in table.entries if classify_entry(e) == CLASS_VICTIM]
            full.update(e.addr for e in victims)
            if victims:
                degenerate.add(victims[0].addr)
        return len(full), len(degenerate)

    full, degenerate = benchmark(victims_lost)
    assert full > degenerate  # the MRU history carries real information
    print(f"\nAblation MRU: full tables see {full} victims vs {degenerate} most-recent-only")
