"""GeoIP stand-in.

The paper uses GeoIP only to place amplifiers and victims in countries and
continents (victims "from 184 countries in six continents"; the nine mega
amplifiers "all located in Japan"; §6.1's per-continent remediation rates).
Our geo view simply resolves an IP through the synthetic address plan.
"""

from repro.net.asn import _COUNTRIES

__all__ = ["CONTINENT_OF", "GeoView"]

#: country code -> continent code, derived from the synthetic address plan.
CONTINENT_OF = {
    country: continent for continent, countries in _COUNTRIES.items() for country in countries
}


class GeoView:
    """Country/continent lookups for IPs via a routed-block table."""

    def __init__(self, table):
        self._table = table

    def country_of(self, ip):
        system = self._table.origin_as(ip)
        return system.country if system else None
