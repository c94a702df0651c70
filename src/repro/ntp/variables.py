"""Mode-6 system-variable strings (the ``version`` probe's reply payload).

A READVAR response carries an ASCII list of system variables.  Its length —
typically a few hundred bytes against an 84-byte on-wire query — is what
gives the ``version`` command its 3.5–6.9x quartile BAFs (§3.3, Fig. 4c).

The strings here are synthesized from the server's attributes (daemon
version, compile year, OS/system string, stratum, refid) in the shape real
ntpd emits, so that the analysis side can parse OS/system/stratum/compile
year back out of raw payload bytes exactly as the paper did.
"""

import re

__all__ = [
    "render_system_variables",
    "parse_system_variables",
    "extract_compile_year",
    "WEEKDAYS",
]

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

#: Optional variables some builds include; used to vary payload size.
#: The spread of reply sizes across builds is what produces the paper's
#: version-BAF quartiles of roughly 3.5 / 4.6 / 6.9 (Fig. 4c).
_OPTIONAL_VARS = (
    ("peer", "45524"),
    ("tc", "10"),
    ("mintc", "3"),
    ("offset", "0.382"),
    ("frequency", "-14.926"),
    ("sys_jitter", "1.436"),
    ("clk_jitter", "0.358"),
    ("clk_wander", "0.036"),
    ("mobilize", "28"),
    ("demobilize", "17"),
    ("tai", "35"),
    ("leapsec", "201207010000"),
    ("expire", "201412280000"),
    ("mintemp", "22.1"),
    ("maxtemp", "48.7"),
    ("state", "4"),
    ("peeradr", "198.51.100.23:123"),
    ("peermode", "1"),
    ("hostname", "core-gw7.example-isp.net"),
    ("refclock", "GPS_NMEA(0)"),
    ("daemonflags", "kernel ntp monitor stats"),
    ("build", "4.2.6p5@1.2349-o fallback config disabled monitor enabled"),
)

_OPTIONAL_FIELDS = tuple(f"{name}={value}" for name, value in _OPTIONAL_VARS)


def render_system_variables(
    daemon_version,
    compile_year,
    system,
    processor,
    stratum,
    refid,
    extra_vars=0,
    weekday_index=1,
):
    """Render a READVAR payload string for a server.

    ``extra_vars`` (0..len(_OPTIONAL_VARS)) pads the reply with optional
    variables, modeling the build-to-build variation in reply sizes.
    """
    if not 0 <= extra_vars <= len(_OPTIONAL_VARS):
        raise ValueError("extra_vars out of range")
    weekday = WEEKDAYS[weekday_index % len(WEEKDAYS)]
    version_field = (
        f'version="ntpd {daemon_version}@1.2349-o {weekday} Dec 11 08:40:34 UTC {compile_year} (1)"'
    )
    fields = [
        version_field,
        f'processor="{processor}"',
        f'system="{system}"',
        "leap=0",
        f"stratum={stratum}",
        "precision=-20",
        "rootdelay=31.250",
        "rootdisp=48.250",
        f"refid={refid}",
        "reftime=0xd63f8f2e.85b73b00",
        "clock=0xd63f9b42.577b0b0d",
    ]
    fields.extend(_OPTIONAL_FIELDS[:extra_vars])
    return ", ".join(fields)


_FIELD_RE = re.compile(r'(\w+)=("(?:[^"]*)"|[^,]*)')
_YEAR_RE = re.compile(r"UTC (\d{4})")


def parse_system_variables(payload):
    """Parse a READVAR payload back into a dict of variables.

    Accepts ``bytes`` or ``str``; quoted values are unquoted.  This is the
    parser the analysis layer runs over captured version-probe responses.
    """
    if isinstance(payload, (bytes, bytearray)):
        payload = payload.decode("ascii", errors="replace")
    out = {}
    for match in _FIELD_RE.finditer(payload):
        name, value = match.group(1), match.group(2).strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        out[name] = value
    return out


def extract_compile_year(version_value):
    """The four-digit compile year embedded in a version string, or None."""
    match = _YEAR_RE.search(version_value or "")
    if match is None:
        return None
    year = int(match.group(1))
    if not 1990 <= year <= 2100:
        return None
    return year
