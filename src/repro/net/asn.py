"""Synthetic autonomous-system registry and address plan.

The paper aggregates IPs by origin AS, routed block, country, and continent
(Tables 1, 5, 6; §6.1's regional remediation rates).  Since real BGP and
GeoIP feeds are proprietary, we generate a synthetic Internet: a population
of ASes of several kinds (hosting, telecom, residential, education,
enterprise), each holding one or more routed prefixes carved from per-
continent address pools.

A handful of *special* ASes mirror entities the paper names, so the local
vantage-point analyses have concrete anchors:

* ``REGIONAL-MI`` — the Merit-like regional education ISP (AS 237 in life).
* ``FRGP-CO`` / ``CSU-EDU`` — the Front Range GigaPop and the university
  inside it.
* ``HOSTING-FR-1`` — the OVH-like French hosting firm that tops the victim
  table, and ``CDN-MITIGATION`` — the CloudFlare-like mitigation provider.
* ``JP-NET-1..7`` — seven Japanese networks that host the mega amplifiers
  (§3.4 found all nine mega amplifiers in Japan).
"""

import enum
from dataclasses import dataclass, field

from repro.net.ipv4 import Prefix

__all__ = ["NetworkKind", "AutonomousSystem", "ASRegistry", "CONTINENTS"]


class NetworkKind(enum.Enum):
    """Coarse operational category of a network; drives management quality."""

    HOSTING = "hosting"
    TELECOM = "telecom"
    RESIDENTIAL = "residential"
    EDUCATION = "education"
    ENTERPRISE = "enterprise"


CONTINENTS = ("NA", "SA", "EU", "AS", "AF", "OC")

#: Countries used by the synthetic geo plan, keyed by continent.
_COUNTRIES = {
    "NA": ["US", "CA", "MX"],
    "SA": ["BR", "AR", "CL", "CO"],
    "EU": ["DE", "FR", "GB", "NL", "RO", "RU", "IT", "ES"],
    "AS": ["CN", "JP", "KR", "IN", "TW", "VN"],
    "AF": ["ZA", "EG", "NG", "KE"],
    "OC": ["AU", "NZ"],
}

#: Share of the synthetic Internet's ASes per continent (roughly mirrors
#: real registry weight; the exact values only shape aggregate statistics).
_CONTINENT_WEIGHTS = {
    "NA": 0.30,
    "EU": 0.30,
    "AS": 0.22,
    "SA": 0.09,
    "AF": 0.05,
    "OC": 0.04,
}

#: Mix of network kinds (hosting-heavy enough that victim concentration in
#: hosting ASes, §4.3.1, can emerge).
_KIND_WEIGHTS = {
    NetworkKind.TELECOM: 0.28,
    NetworkKind.RESIDENTIAL: 0.27,
    NetworkKind.HOSTING: 0.15,
    NetworkKind.ENTERPRISE: 0.22,
    NetworkKind.EDUCATION: 0.08,
}

#: /8 address pools per continent that the allocator carves prefixes from.
#: The 60.0.0.0/8 block is *not* listed: it is reserved for the darknet
#: telescope, and 203.0.0.0/8 is reserved for measurement infrastructure.
_ADDRESS_POOLS = {
    "NA": [
        Prefix.parse("12.0.0.0/8"),
        Prefix.parse("24.0.0.0/8"),
        Prefix.parse("64.0.0.0/8"),
        Prefix.parse("66.0.0.0/8"),
        Prefix.parse("68.0.0.0/8"),
        Prefix.parse("72.0.0.0/8"),
    ],
    "EU": [
        Prefix.parse("80.0.0.0/8"),
        Prefix.parse("82.0.0.0/8"),
        Prefix.parse("88.0.0.0/8"),
        Prefix.parse("145.0.0.0/8"),
        Prefix.parse("151.0.0.0/8"),
        Prefix.parse("193.0.0.0/8"),
    ],
    "AS": [
        Prefix.parse("110.0.0.0/8"),
        Prefix.parse("120.0.0.0/8"),
        Prefix.parse("175.0.0.0/8"),
        Prefix.parse("180.0.0.0/8"),
        Prefix.parse("220.0.0.0/8"),
    ],
    "SA": [
        Prefix.parse("177.0.0.0/8"),
        Prefix.parse("186.0.0.0/8"),
        Prefix.parse("190.0.0.0/8"),
    ],
    "AF": [
        Prefix.parse("41.0.0.0/8"),
        Prefix.parse("105.0.0.0/8"),
        Prefix.parse("154.0.0.0/8"),
    ],
    "OC": [
        Prefix.parse("1.0.0.0/8"),
        Prefix.parse("101.0.0.0/8"),
    ],
}

#: Reserved for the IPv4 darknet telescope (≈/8, 75% effective coverage).
DARKNET_POOL = Prefix.parse("60.0.0.0/8")
#: Reserved for measurement infrastructure (ONP prober, research scanners).
MEASUREMENT_POOL = Prefix.parse("203.0.0.0/8")

#: First octets the synthetic plan never hands out: the two reserved /8s
#: above plus the real-Internet special ranges (this-network, loopback,
#: RFC1918/CGNAT/link-local/TEST-NET carriers, multicast and beyond).
_EXCLUDED_FIRST_OCTETS = frozenset(
    {0, 10, 60, 100, 127, 169, 172, 192, 198, 203} | set(range(224, 256))
)

#: Shared overflow /8 pools, used by any continent once its own pool runs
#: dry.  Only large-scale builds (``scale`` ≥ ~0.02, tens of thousands of
#: ASes) ever reach them, so small worlds keep the tighter per-continent
#: geographic clustering *and* their exact historical address plan — the
#: allocator's behavior is unchanged until the moment it would previously
#: have raised "address pool exhausted".
_OVERFLOW_POOL = [
    Prefix(octet << 24, 8)
    for octet in range(1, 224)
    if octet not in _EXCLUDED_FIRST_OCTETS
    and not any(
        prefix.network >> 24 == octet
        for prefixes in _ADDRESS_POOLS.values()
        for prefix in prefixes
    )
]


@dataclass
class AutonomousSystem:
    """One synthetic AS: identity, category, location, and address space."""

    asn: int
    name: str
    kind: NetworkKind
    country: str
    continent: str
    prefixes: list = field(default_factory=list)

    @property
    def n_addresses(self):
        return sum(p.n_addresses for p in self.prefixes)

    def random_ip(self, rng):
        """A uniformly random address within this AS's space."""
        if not self.prefixes:
            raise ValueError(f"AS{self.asn} has no prefixes")
        sizes = [p.n_addresses for p in self.prefixes]
        total = sum(sizes)
        offset = int(rng.integers(0, total))
        for prefix, size in zip(self.prefixes, sizes):
            if offset < size:
                return prefix.nth(offset)
            offset -= size
        raise AssertionError("unreachable")


class _PoolAllocator:
    """Sequentially carves aligned prefixes out of per-continent /8 pools,
    spilling into a shared overflow pool when a continent runs dry."""

    _OVERFLOW_KEY = "*"

    def __init__(self, pools, overflow=()):
        # cursor per continent: (pool index, next free address)
        self._pools = {cont: list(prefixes) for cont, prefixes in pools.items()}
        self._cursor = {cont: (0, prefixes[0].network) for cont, prefixes in pools.items()}
        if overflow:
            self._pools[self._OVERFLOW_KEY] = list(overflow)
            self._cursor[self._OVERFLOW_KEY] = (0, overflow[0].network)

    def _try_allocate(self, key, length):
        pools = self._pools[key]
        index, next_free = self._cursor[key]
        size = 1 << (32 - length)
        while index < len(pools):
            pool = pools[index]
            # Align up to the prefix size.
            aligned = (next_free + size - 1) & ~(size - 1)
            if aligned + size - 1 <= pool.last:
                self._cursor[key] = (index, aligned + size)
                return Prefix(aligned, length)
            index += 1
            if index < len(pools):
                next_free = pools[index].network
        return None

    def allocate(self, continent, length):
        """The next free, aligned prefix of the given length."""
        prefix = self._try_allocate(continent, length)
        if prefix is None and self._OVERFLOW_KEY in self._pools:
            prefix = self._try_allocate(self._OVERFLOW_KEY, length)
        if prefix is None:
            raise RuntimeError(f"address pool exhausted for {continent}")
        return prefix


#: Typical prefix lengths allocated per network kind (larger nets for
#: telecoms/residential, small ones for enterprises).
_PREFIX_LENGTHS = {
    NetworkKind.TELECOM: (15, 18),
    NetworkKind.RESIDENTIAL: (15, 18),
    NetworkKind.HOSTING: (17, 20),
    NetworkKind.EDUCATION: (17, 19),
    NetworkKind.ENTERPRISE: (20, 23),
}


class ASRegistry:
    """The synthetic Internet's AS-level address plan.

    Parameters
    ----------
    rng:
        Stream the plan is drawn from.
    n_ases:
        Number of ordinary ASes to generate (special ASes are extra).
    """

    def __init__(self, rng, n_ases=4000):
        if n_ases < len(CONTINENTS):
            raise ValueError("need at least one AS per continent")
        self._by_asn = {}
        self._allocator = _PoolAllocator(_ADDRESS_POOLS, overflow=_OVERFLOW_POOL)
        self._next_asn = 1
        self.special = {}
        self._generate(rng, n_ases)
        self._create_specials(rng)

    # -- construction ---------------------------------------------------------

    def _generate(self, rng, n_ases):
        continents = list(_CONTINENT_WEIGHTS)
        cont_p = [_CONTINENT_WEIGHTS[c] for c in continents]
        kinds = list(_KIND_WEIGHTS)
        kind_p = [_KIND_WEIGHTS[k] for k in kinds]
        chosen_conts = rng.choice(len(continents), size=n_ases, p=cont_p)
        chosen_kinds = rng.choice(len(kinds), size=n_ases, p=kind_p)
        for i in range(n_ases):
            continent = continents[int(chosen_conts[i])]
            kind = kinds[int(chosen_kinds[i])]
            country = _COUNTRIES[continent][int(rng.integers(0, len(_COUNTRIES[continent])))]
            low, high = _PREFIX_LENGTHS[kind]
            n_prefixes = min(int(rng.geometric(0.6)), 4)
            prefixes = [
                self._allocator.allocate(continent, int(rng.integers(low, high + 1)))
                for _ in range(n_prefixes)
            ]
            self._add(
                AutonomousSystem(
                    asn=self._next_asn,
                    name=f"{kind.value.upper()}-{country}-{self._next_asn}",
                    kind=kind,
                    country=country,
                    continent=continent,
                    prefixes=prefixes,
                )
            )

    def _create_specials(self, rng):
        spec = [
            ("REGIONAL-MI", NetworkKind.EDUCATION, "US", "NA", [14]),
            ("FRGP-CO", NetworkKind.EDUCATION, "US", "NA", [15]),
            ("CSU-EDU", NetworkKind.EDUCATION, "US", "NA", [16]),
            ("HOSTING-FR-1", NetworkKind.HOSTING, "FR", "EU", [15, 16]),
            ("CDN-MITIGATION", NetworkKind.HOSTING, "US", "NA", [16]),
        ]
        spec += [(f"JP-NET-{i}", NetworkKind.TELECOM, "JP", "AS", [16]) for i in range(1, 8)]
        for name, kind, country, continent, lengths in spec:
            prefixes = [self._allocator.allocate(continent, ln) for ln in lengths]
            system = AutonomousSystem(
                asn=self._next_asn,
                name=name,
                kind=kind,
                country=country,
                continent=continent,
                prefixes=prefixes,
            )
            self._add(system)
            self.special[name] = system

    def _add(self, system):
        self._by_asn[system.asn] = system
        self._next_asn = max(self._next_asn, system.asn) + 1

    # -- queries --------------------------------------------------------------

    def __len__(self):
        return len(self._by_asn)

    def __iter__(self):
        return iter(self._by_asn.values())

    def systems_of_kind(self, kind):
        return [s for s in self if s.kind == kind]

    def all_prefixes(self):
        """Iterate ``(Prefix, AutonomousSystem)`` over the whole plan."""
        for system in self:
            for prefix in system.prefixes:
                yield prefix, system
