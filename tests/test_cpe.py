import random
import string

import pytest

from vulnmap.cpe import MalformedCpe, Part, normalize_component, parse_cpe23


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
