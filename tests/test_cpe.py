import random
import re
import string
import sys

import pytest

from helpers import reference_cpe23_fields
from vulnmap.cpe import CpeRecord, MalformedCpe, Part, normalize_component, parse_cpe23


def test_parse_basic_fields():
    r = parse_cpe23("cpe:2.3:a:lodash:lodash:4.17.11:*:*:*:*:node.js:*:*")
    assert r.part is Part.APPLICATION
    assert r.vendor == "lodash"
    assert r.product == "lodash"
    assert r.version == "4.17.11"
    assert r.target_sw == "node.js"
    assert r.raw == "cpe:2.3:a:lodash:lodash:4.17.11:*:*:*:*:node.js:*:*"


def test_escaped_colon_lands_in_product():
    r = parse_cpe23("cpe:2.3:a:acme:foo\\:bar:1.0:*:*:*:*:*:*:*")
    assert r.product == "foo:bar"
    assert r.version == "1.0"


def test_too_few_fields_rejected():
    with pytest.raises(MalformedCpe):
        parse_cpe23("cpe:2.3:a:acme:foo")


def test_too_many_fields_rejected():
    with pytest.raises(MalformedCpe):
        parse_cpe23("cpe:2.3:a:a:b:c:*:*:*:*:*:*:*:extra")


def test_legacy_22_uri_rejected():
    with pytest.raises(MalformedCpe):
        parse_cpe23("cpe:/a:acme:foo:1.0")


def test_wrong_prefix_rejected():
    for bad in ("", "garbage", "cpe:2.2:a:a:b:c:*:*:*:*:*:*:*", "CPE:2.3:a:a:b:c:*:*:*:*:*:*:*"):
        with pytest.raises(MalformedCpe):
            parse_cpe23(bad)


def test_part_values():
    template = "cpe:2.3:{}:v:p:1:*:*:*:*:*:*:*"
    assert parse_cpe23(template.format("a")).part is Part.APPLICATION
    assert parse_cpe23(template.format("o")).part is Part.OPERATING_SYSTEM
    assert parse_cpe23(template.format("h")).part is Part.HARDWARE
    assert parse_cpe23(template.format("*")).part is Part.ANY
    assert parse_cpe23(template.format("-")).part is Part.NOT_APPLICABLE
    with pytest.raises(MalformedCpe):
        parse_cpe23(template.format("x"))


def test_wildcard_and_na_survive_verbatim():
    r = parse_cpe23("cpe:2.3:a:acme:tool:-:*:*:*:*:-:*:*")
    assert r.version == "-"
    assert r.update == "*"
    assert r.target_sw == "-"


def test_fields_are_lowercased():
    r = parse_cpe23("cpe:2.3:a:Apache:Log4J:2.0:*:*:*:*:Java:*:*")
    assert (r.vendor, r.product, r.target_sw) == ("apache", "log4j", "java")


def test_normalize_component_examples():
    assert normalize_component("LoDash") == "lodash"
    assert normalize_component("foo\\-bar") == "foo-bar"
    assert normalize_component("  x  ") == "x"
    assert normalize_component("a\\:b") == "a:b"
    assert normalize_component("a\\\\b") == "ab"
    assert normalize_component("ab\\") == "ab"


def test_normalize_component_idempotent_on_tricky_inputs():
    rng = random.Random(7)
    alphabet = string.ascii_letters + string.digits + "\\:*-._ "
    for _ in range(2000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        once = normalize_component(s)
        assert normalize_component(once) == once


def test_lowercasing_puts_no_whitespace_at_either_end():
    # The backslash-free paths of normalize_component and parse_cpe23 strip
    # only before lowercasing; this is what makes that enough.
    for ch in map(chr, range(sys.maxunicode + 1)):
        if not ch.isspace():
            low = ch.lower()
            assert not low[0].isspace() and not low[-1].isspace(), repr(ch)


def test_normalize_component_agrees_with_its_escape_resolving_form():
    rng = random.Random(4242)
    alphabet = ("a", "Z", " ", "\t", "\\", "\\:", "\u03a3", "\u212a", "\u0130", "\u00a0", ":")
    for _ in range(20_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        assert normalize_component(s) == re.sub(r"\\\\?", "", s.strip().lower()).strip()


def _random_component(rng: random.Random) -> str:
    # Raw component text with escapes, as it appears inside the formatted string.
    pieces = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.75:
            pieces.append(rng.choice(string.ascii_lowercase + string.digits))
        elif roll < 0.85:
            pieces.append(rng.choice("._-"))
        else:
            pieces.append("\\" + rng.choice(":*?._-"))
    return "".join(pieces)


def generate_valid_cpe(rng: random.Random) -> str:
    fields = [rng.choice("aoh*-")]
    for _ in range(10):
        roll = rng.random()
        if roll < 0.3:
            fields.append("*")
        elif roll < 0.35:
            fields.append("-")
        else:
            fields.append(_random_component(rng))
    return "cpe:2.3:" + ":".join(fields)


def test_roundtrip_property():
    rng = random.Random(20230209)
    for _ in range(10_000):
        raw = generate_valid_cpe(rng)
        record = parse_cpe23(raw)
        assert parse_cpe23(record.raw) == record
        assert record.raw == raw


def test_unescaped_colon_count_is_twelve():
    rng = random.Random(99)
    for _ in range(500):
        raw = generate_valid_cpe(rng)
        unescaped = 0
        escaped = False
        for ch in raw:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == ":":
                unescaped += 1
        assert unescaped == 12


# Escape-heavy and malformed CPE strings for the differential test below.
EDGE_CPES = [
    "cpe:2.3:a:v:p:1:*:*:*:*:*:*:*\\",  # a lone backslash ends the last field
    "cpe:2.3:a:v:p:1:*:*:*:*:*:*:*\\\\",  # an escaped backslash
    "cpe:2.3:a:v:p:1:*:*:*:*:*:*:\\:",  # an escaped colon is the last field
    "cpe:2.3:a:v:p\\\n1:2:*:*:*:*:*:*:*",  # a backslash escapes a newline
    "cpe:2.3:a:v:p\n1:2:*:*:*:*:*:*:*",
    "cpe:2.3:a:v\u00e9:\u65e5\u672c\\\u00e9:1:*:*:*:*:*:*:\U0001f600",  # non-ASCII
    "cpe:2.3:a:v:p:1:*:*:*:*:*:*",  # 10 fields
    "cpe:2.3:a:v:p:1:*:*:*:*:*:*:*:*",  # 12 fields
    "cpe:2.3:x:v:p:1:*:*:*:*:*:*:*",
    "cpe:2.3:A:v:p:1:*:*:*:*:*:*:*",
    "cpe:2.3:\\a:v:p:1:*:*:*:*:*:*:*",
    "cpe:/a:v:p:1",
    "cpe:/a:v:p:1:*:*:*:*:*:*:*:*",
    "CPE:2.3:a:v:p:1:*:*:*:*:*:*:*",
    "cpe:2.3:a:v:p:1:*:*:*:*:*:*:*\n",
    "cpe:2.3:a:a\u03a3:b:*:*:*:*:*:*:*:*",  # a final sigma: lowercase each field alone
]
_PIECES = ("a", "Z", "7", ".", " ", "*", "-", ":", "\\", "\\:", "\\\\", "\\\n", "\n",
           "\u00e9", "\u65e5", "\U0001f600", "\u03a3", "\u212a")


def _messy_cpe(rng: random.Random) -> str:
    prefix = rng.choice(("cpe:2.3:",) * 8 + ("cpe:/", "CPE:2.3:", "cpe:2.3"))
    part = rng.choice(("a", "o", "h", "*", "-") * 4 + ("x", "A", "", "aa", "\\a"))
    attributes = [
        "".join(rng.choice(_PIECES) for _ in range(rng.choice((0, 1, 1, 2, 3))))
        for _ in range(rng.choice((9, 10, 10, 10, 11)))
    ]
    trailing = "\\" if rng.random() < 0.2 else ""
    return prefix + ":".join((part, *attributes)) + trailing


def _is_plain(uri: str) -> bool:
    """ASCII without a backslash or any character str.strip removes."""
    return uri.isascii() and not any(ch == "\\" or ch.isspace() for ch in uri)


def test_parser_agrees_with_reference_splitter():
    rng = random.Random(7695)
    messy = [_messy_cpe(rng) for _ in range(20_000)]
    accepted = {True: 0, False: 0}  # by whether the string holds a backslash
    plain = 0  # accepted strings that parse_cpe23 lowercases whole
    # Each messy string also without its backslashes, for the str.split path,
    # and with only its plain characters, for the whole-string lowercasing.
    for uri in (
        EDGE_CPES + messy + [m.replace("\\", "") for m in messy]
        + ["".join(filter(_is_plain, m)) for m in messy]
    ):
        fields = reference_cpe23_fields(uri)
        if fields is None:
            with pytest.raises(MalformedCpe):
                parse_cpe23(uri)
            continue
        accepted["\\" in uri] += 1
        plain += _is_plain(uri)
        values = [f if f in ("*", "-") else normalize_component(f) for f in fields[1:]]
        assert parse_cpe23(uri) == CpeRecord(Part(fields[0]), *values, uri)
    # Both outcomes, and accepted strings with and without a backslash, are well exercised.
    assert 4_000 < sum(accepted.values()) < 36_000
    assert min(accepted.values()) > 2_000
    assert plain > 2_000
