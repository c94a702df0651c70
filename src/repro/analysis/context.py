"""A parse-once handle over a built world's analysis inputs.

Almost every artifact starts the same way: decode the 15-sample monlist
corpus, derive the victimology report from the parsed tables, and maybe
aggregate victims by AS.  Before this module each renderer did that work
privately, so ``summary`` + ``validate`` + a handful of figures re-decoded
the same five-million-entry corpus once *each*.  An :class:`AnalysisContext`
owns the memoized handles instead: any number of consumers share exactly one
corpus decode per CLI invocation.

Two properties make the sharing safe:

* every derived object is a pure function of the (immutable once built)
  world, so memoization cannot change any output byte;
* the memos are lazy — a context handed to a renderer that only reads flow
  data (Fig 11..15) never triggers a parse at all.

The context also keeps the books: ``parse_calls`` records how many sample
decodes *this context* ran, which is what tests and benchmark records pin
the parse-once contract on.
"""

from repro.analysis.event_columns import build_event_columns

__all__ = ["AnalysisContext"]


class AnalysisContext:
    """Shared, lazily-populated analysis state for one world.

    ``jobs`` is accepted and ignored: the corpus decodes in this process
    at any worker count, because a pooled decode measured slower than a
    serial one.  The keyword stays only until the ``batch`` benchmark
    (``perf/batch.py``) stops passing it.
    """

    def __init__(self, world, jobs=1):
        self.world = world
        #: Sample decodes this context has run (0 until the first
        #: consumer needs the corpus; then exactly one corpus decode).
        self.parse_calls = 0
        self._parsed = None
        self._victim_report = None
        self._concentration = None
        self._version_report = None

    def parsed_samples(self):
        """The parsed monlist corpus (one decode, ever, per context)."""
        if self._parsed is None:
            samples = self.world.onp.monlist_samples
            self._parsed = build_event_columns(samples).sample_views()
            self.parse_calls += len(samples)
        return self._parsed

    def victim_report(self):
        """The §4 victimology report over the parsed corpus."""
        if self._victim_report is None:
            from repro.analysis.victimology import analyze_dataset
            from repro.attack.scanner import ONP_PROBER_IP

            self._victim_report = analyze_dataset(self.parsed_samples(), onp_ip=ONP_PROBER_IP)
        return self._victim_report

    def concentration(self):
        """The §4.3 AS-concentration report (victims aggregated by AS)."""
        if self._concentration is None:
            from repro.analysis.concentration import as_concentration

            self._concentration = as_concentration(self.victim_report(), self.world.table)
        return self._concentration

    def version_report(self):
        """The §3.3 version-probe report over all mode-6 captures.

        The regex-heavy system-variable parse is the most expensive
        non-monlist analysis; Table 2 and the conformance invariants both
        consume it, so it is memoized here like the monlist corpus.
        """
        if self._version_report is None:
            from repro.analysis.versions import parse_version_samples

            self._version_report = parse_version_samples(self.world.onp.version_samples)
        return self._version_report

    def warm(self):
        """Force the corpus decode now (before forking render workers, or
        to time the parse phase in isolation); returns self."""
        self.parsed_samples()
        return self
