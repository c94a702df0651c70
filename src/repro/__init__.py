"""Reproduction of *Taming the 800 Pound Gorilla: The Rise and Decline of
NTP DDoS Attacks* (Czyz et al., IMC 2014).

The package is layered bottom-up:

* :mod:`repro.util` — RNG streams, simulation time, statistics;
* :mod:`repro.net` — IPv4, on-wire framing, routing, AS registry, PBL;
* :mod:`repro.ntp` — NTP wire formats (modes 6 and 7), the monlist MRU
  table, and a simulated ntpd server;
* :mod:`repro.sim` — attack-pulse and scan-sweep event records;
* :mod:`repro.population` — NTP hosts, amplifier pools, remediation,
  victims, DNS resolvers;
* :mod:`repro.attack` — scanners, booters, attack campaigns;
* :mod:`repro.telescope` — IPv4/IPv6 darknets;
* :mod:`repro.measurement` — the paper's five data-collection apparatus;
* :mod:`repro.analysis` — the paper's analysis pipeline (consumes only the
  measured datasets, never simulator ground truth);
* :mod:`repro.scenario` — :class:`~repro.scenario.PaperWorld`, one call to
  build everything;
* :mod:`repro.reporting` — text rendering of the paper's tables/figures.

Quick start::

    from repro import PaperWorld
    world = PaperWorld.build(seed=2014, scale=0.001)
    from repro.analysis import AnalysisContext
    context = AnalysisContext(world)
    report = context.victim_report()
"""

from repro.scenario import PaperWorld, WorldParams

# 2.0.0: columnar world core + sharded build.  The world bytes changed
# (hosts/attacks now drawn per block / per week from derived child
# streams), so every pre-2.0 cache entry must miss on the version check.
__version__ = "2.0.0"

__all__ = ["PaperWorld", "WorldParams", "__version__"]
