"""Parsing and normalization of CPE 2.3 formatted strings."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

CPE23_PREFIX = "cpe:2.3:"
ATTRIBUTE_COUNT = 11

WILDCARD = "*"
NOT_APPLICABLE = "-"

# A backslash with the character it escapes when that is a backslash too.
_BACKSLASHES = re.compile(r"\\\\?")


class MalformedCpe(ValueError):
    """The input is not a well-formed CPE 2.3 formatted string."""


class Part(enum.Enum):
    APPLICATION = "a"
    OPERATING_SYSTEM = "o"
    HARDWARE = "h"
    ANY = "*"
    NOT_APPLICABLE = "-"


@dataclass(frozen=True)
class CpeRecord:
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
    return _BACKSLASHES.sub("", raw.strip().lower()).strip()


def _split_unescaped(s: str) -> list[str]:
    """Split on ":" while honoring backslash escapes (escapes are kept)."""
    parts: list[str] = []
    current: list[str] = []
    escaped = False
    for ch in s:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == ":":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_cpe23(uri: str) -> CpeRecord:
    """Parse a CPE 2.3 formatted string into a CpeRecord.

    Raises MalformedCpe when the prefix is wrong (this includes legacy
    ``cpe:/`` 2.2 URIs), when splitting on unescaped colons does not yield
    exactly 11 attribute fields, or when the part field is not one of
    ``a``, ``o``, ``h``, ``*``, ``-``.
    """
    if not uri.startswith(CPE23_PREFIX):
        raise MalformedCpe(f"not a cpe:2.3 formatted string: {uri!r}")
    fields = _split_unescaped(uri[len(CPE23_PREFIX):])
    if len(fields) != ATTRIBUTE_COUNT:
        raise MalformedCpe(
            f"expected {ATTRIBUTE_COUNT} attribute fields, got {len(fields)}: {uri!r}"
        )
    try:
        part = Part(fields[0])
    except ValueError:
        raise MalformedCpe(f"invalid part value {fields[0]!r}: {uri!r}") from None
    values = [
        f if f in (WILDCARD, NOT_APPLICABLE) else normalize_component(f)
        for f in fields[1:]
    ]
    return CpeRecord(part, *values, raw=uri)
