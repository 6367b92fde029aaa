"""Parsing and normalization of CPE 2.3 formatted strings."""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

WILDCARD = "*"
NOT_APPLICABLE = "-"

# A backslash with the character it escapes when that is a backslash too.
_BACKSLASHES = re.compile(r"\\\\?")
# The formatted-string binding of NISTIR 7695: the prefix, the part, then ten
# attributes separated by colons that no backslash escapes. Only the last
# attribute can end in a lone backslash, since anywhere else it escapes a colon.
_CPE23 = re.compile(
    r"cpe:2\.3:([aoh*-])" + r":((?:[^\\:]|\\.)*)" * 9 + r":((?:[^\\:]|\\.)*\\?)", re.S
)


class MalformedCpe(ValueError):
    """The input is not a well-formed CPE 2.3 formatted string."""


class Part(str, enum.Enum):
    APPLICATION = "a"
    OPERATING_SYSTEM = "o"
    HARDWARE = "h"
    ANY = "*"
    NOT_APPLICABLE = "-"


_PARTS = {part.value: part for part in Part}


class CpeRecord(NamedTuple):
    """The 11 logical attribute fields of a CPE 2.3 name, plus the source text.

    Attribute values are lowercased with escape sequences resolved; the
    wildcard "*" and the not-applicable marker "-" are kept verbatim so
    downstream matching can skip them deliberately.
    """

    part: Part
    vendor: str
    product: str
    version: str
    update: str
    edition: str
    language: str
    sw_edition: str
    target_sw: str
    target_hw: str
    other: str
    raw: str


def normalize_component(raw: str) -> str:
    """Lowercase a CPE component, resolve backslash escapes, trim whitespace.

    Escaped characters (``\\:``, ``\\-``, ...) become their literal selves.
    Backslashes themselves never survive into the output, which makes the
    function idempotent for every input.
    """
    if "\\" not in raw:
        # Nothing to resolve, and lowercasing puts no whitespace at either end.
        return raw.strip().lower()
    return _BACKSLASHES.sub("", raw.strip().lower()).strip()


def parse_cpe23(uri: str) -> CpeRecord:
    """Parse a CPE 2.3 formatted string into a CpeRecord.

    Raises MalformedCpe when the prefix is wrong (this includes legacy
    ``cpe:/`` 2.2 URIs), when splitting on unescaped colons does not yield
    exactly 11 attribute fields, or when the part field is not one of
    ``a``, ``o``, ``h``, ``*``, ``-``.
    """
    plain = False
    if "\\" in uri:
        match = _CPE23.fullmatch(uri)
        fields = None if match is None else match.groups()
    else:
        # Without a backslash every colon separates two fields.
        fields = uri.split(":")
        fields = fields[2:] if len(fields) == 13 and fields[:2] == ["cpe", "2.3"] else None
        # Printable ASCII other than the space holds nothing str.strip removes.
        plain = uri.isascii() and uri.isprintable() and " " not in uri
    part = None if fields is None else _PARTS.get(fields[0])
    if part is None:
        raise MalformedCpe(f"not a well-formed cpe:2.3 formatted string: {uri!r}")
    if plain:
        # Lowercasing ASCII is per character and stripping does nothing, so one
        # lower() after "cpe:2.3:<part>:" does what ten normalize_component calls do.
        return CpeRecord(part, *uri[10:].lower().split(":"), uri)
    # Each field is normalized on its own: lowercasing the whole string would
    # turn a final sigma into a medial one.
    values = [
        f if f in (WILDCARD, NOT_APPLICABLE) else normalize_component(f)
        for f in fields[1:]
    ]
    return CpeRecord(part, *values, uri)
