"""The paper's analysis pipeline.

Everything here consumes *dataset artifacts* (probe captures, flow
aggregates, telescope counters) — never the simulator's ground truth — so
the pipeline would run unchanged over real data with the same schemas.
"""

from repro.analysis.amplification import (
    MegaCensus,
    aggregate_bytes_per_amplifier,
    mega_amplifier_census,
    on_wire_baf,
    payload_baf,
    sample_baf_boxplot,
    version_sample_baf_boxplot,
)
from repro.analysis.churn import ChurnReport, churn_report
from repro.analysis.concentration import ConcentrationReport, as_concentration
from repro.analysis.context import AnalysisContext
from repro.analysis.local import (
    TtlForensics,
    common_scanner_timeline,
    coordination_report,
    top_amplifier_table,
    top_victim_table,
    ttl_forensics,
)
from repro.analysis.monlist_parse import (
    ParseStats,
    ReconstructedTable,
    reconstruct_table,
    reconstruct_table_lenient,
)
from repro.analysis.quality import QualityReport, ReconciliationCheck, quality_report
from repro.analysis.remediation import (
    AmplifierCountRow,
    amplifier_counts,
    continent_remediation,
    overlap_with_dns,
    pool_relative_to_peak,
    subgroup_reductions,
    subset_counts,
    weeks_since,
)
from repro.analysis.scanning import ScanningReport, darknet_report, scanning_leads_attacks_by
from repro.analysis.timeseries import (
    attack_fraction_rows,
    daily_attack_counts,
    peak_traffic_date,
    traffic_fractions,
)
from repro.analysis.versions import VersionReport, os_family_of, parse_version_samples
from repro.analysis.victimology import (
    CLASS_NON_VICTIM,
    CLASS_SCANNER,
    CLASS_VICTIM,
    VictimologyReport,
    analyze_dataset,
    classify_entry,
)

__all__ = [
    "MegaCensus",
    "aggregate_bytes_per_amplifier",
    "mega_amplifier_census",
    "on_wire_baf",
    "payload_baf",
    "sample_baf_boxplot",
    "version_sample_baf_boxplot",
    "ChurnReport",
    "churn_report",
    "ConcentrationReport",
    "as_concentration",
    "AnalysisContext",
    "TtlForensics",
    "common_scanner_timeline",
    "coordination_report",
    "top_amplifier_table",
    "top_victim_table",
    "ttl_forensics",
    "ParseStats",
    "ReconstructedTable",
    "reconstruct_table",
    "reconstruct_table_lenient",
    "QualityReport",
    "ReconciliationCheck",
    "quality_report",
    "AmplifierCountRow",
    "amplifier_counts",
    "continent_remediation",
    "overlap_with_dns",
    "pool_relative_to_peak",
    "subgroup_reductions",
    "subset_counts",
    "weeks_since",
    "ScanningReport",
    "darknet_report",
    "scanning_leads_attacks_by",
    "attack_fraction_rows",
    "daily_attack_counts",
    "peak_traffic_date",
    "traffic_fractions",
    "VersionReport",
    "os_family_of",
    "parse_version_samples",
    "CLASS_NON_VICTIM",
    "CLASS_SCANNER",
    "CLASS_VICTIM",
    "VictimologyReport",
    "analyze_dataset",
    "classify_entry",
]
