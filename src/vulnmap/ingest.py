"""Streaming ingestion of package-metadata CSV and CVE JSON dumps."""

from __future__ import annotations

import csv
import gzip
import json
import re
import zlib
from collections import Counter, deque
from datetime import date
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO
from urllib.parse import urlsplit

from .cpe import MalformedCpe, normalize_component, parse_cpe23
from .records import (
    _READ_CHARS, CVE_ID_RE, CveCpe, CveRecord, PackageRecord, VersionCount, VersionRecord,
)

SUPPORTED_PROVIDERS = ("github.com", "bitbucket.org", "gitlab.com")

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_WHITESPACE = re.compile(r"\s*")
# A scheme, a host of ASCII letters, digits, dots and hyphens (so no userinfo,
# port, brackets or characters urlsplit deletes), then optionally the first two
# path segments. "(?![^/?#])" ends the host and the second segment where
# urlsplit ends them: at "/", "?", "#" or the end. Segments exclude "\t\r\n",
# which urlsplit deletes before splitting.
_PLAIN_URL = re.compile(
    r"[A-Za-z][A-Za-z0-9+.-]*://([A-Za-z0-9.-]+)(?![^/?#])"
    r"(?:/+([^/?#\t\r\n]+)/+([^/?#\t\r\n]+)(?![^/?#]))?"
)

# Libraries.io CSV schemas (logical field -> header name).
DEFAULT_PACKAGE_COLUMNS = {
    "id": "ID",
    "platform": "Platform",
    "name": "Name",
    "repository_url": "Repository URL",
    "keywords": "Keywords",
    "license": "Licenses",
}
DEFAULT_VERSION_COLUMNS = {
    "id": "Project ID",
    "platform": "Platform",
    "version": "Number",
    "published": "Published Timestamp",
}

# CIRCL CVE dump layout (logical field -> JSON key).
DEFAULT_CVE_FIELDS = {
    "id": "id",
    "summary": "summary",
    "references": "references",
    "published": "Published",
    "cpes": "vulnerable_configuration",
}

RejectSink = Callable[[dict], None]


class CsvStructure(ValueError):
    """Document-level CSV problem: missing mapped header or broken quoting."""


class JsonStructure(ValueError):
    """Document-level JSON malformation that prevents further streaming."""


def parse_date(text) -> date | None:
    """Extract a calendar date from ISO-ish timestamp text, or None."""
    if not text:
        return None
    m = _DATE_RE.match(str(text).strip())
    if not m:
        return None
    try:
        # Raises ValueError on the dates date() does: month 13, day 00, year 0000.
        return date.fromisoformat(m[0])
    except ValueError:
        return None


# Raised while reading a file from open_text_auto that is not UTF-8 text or
# not a whole gzip stream: a truncated one raises EOFError, a corrupt one
# zlib.error or BadGzipFile.
INPUT_DECODE_ERRORS = (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile)
_GZIP_MAGIC = b"\x1f\x8b"


def open_text_auto(path: str | Path) -> TextIO:
    """Open a text file, transparently decompressing gzip (magic 0x1F 0x8B).

    Decodes as UTF-8 and tolerates a leading BOM. Reading raises one of
    INPUT_DECODE_ERRORS on input that does not decode.
    """
    with open(path, "rb") as raw:
        magic = raw.read(2)
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8-sig", newline="")
    return open(path, encoding="utf-8-sig", newline="")


def extract_repo_link(url: str) -> str | None:
    """The "provider/owner/repository" link of a repository URL.

    Scheme, "www." prefixes, userinfo and ports are ignored; the trailing
    ".git" is stripped from the repository segment. Returns None for
    unsupported hosts or paths with fewer than two meaningful segments.
    """
    if not url:
        return None
    s = url.strip()
    if not s:
        return None
    # A plain "scheme://host/owner/repository" URL needs no urlsplit. It
    # gives the host and the two segments urlsplit would give; anything
    # else, a supported host without both segments included, falls through.
    plain = _PLAIN_URL.match(s)
    if plain is not None:
        host, owner, repository = plain.groups()
        provider = _provider(host)
        if provider is None:
            return None
        if owner is not None:
            return _repo_link(provider, owner, repository)
    if "://" not in s:
        s = "//" + s.lstrip("/")
    try:
        parts = urlsplit(s)
    except ValueError:
        return None
    provider = _provider(parts.netloc.rsplit("@", 1)[-1].split(":")[0])
    if provider is None:
        return None
    segments = [seg for seg in parts.path.split("/") if seg]
    if len(segments) < 2:
        return None
    return _repo_link(provider, segments[0], segments[1])


def _provider(host: str) -> str | None:
    """The supported provider a URL's host names, or None."""
    host = host.lower()
    if host.startswith("www."):
        host = host[4:]
    return host if host in SUPPORTED_PROVIDERS else None


def _repo_link(provider: str, owner: str, repository: str) -> str | None:
    owner = owner.lower()
    repository = repository.lower()
    if repository.endswith(".git"):
        repository = repository[: -len(".git")]
    if not owner or not repository:
        return None
    return f"{provider}/{owner}/{repository}"


def _split_keywords(text: str) -> tuple[str, ...]:
    tokens = []
    for tok in text.split(","):
        norm = normalize_component(tok)
        if norm:
            tokens.append(norm)
    return tuple(tokens)


def _read_csv(
    source: Iterable[str],
    columns: dict[str, str],
    label: str,
    rejects: RejectSink | None,
    optional: frozenset[str] = frozenset(),
    row_range: tuple[int, int | None] = (0, None),
) -> tuple[dict[str, int], Iterator[tuple[int, list[str]]], Callable[[int, str, object], None]]:
    """Read a CSV header, then stream the data rows in ``row_range`` as ``(row_number, row)``.

    Returns the column index of each logical field in ``columns``, the row
    stream, and a ``reject(row_number, reason, data)`` function that files
    rejects under ``label``. Rows whose width differs from the header's are
    rejected as ``field_count`` and not yielded. Raises CsvStructure for an
    empty input, a missing header that is not ``optional``, or broken quoting:
    quoting is strict, so a quoted field left open at the end of the input,
    or a closing quote followed by anything but the delimiter or the end of
    the line, stops the read rather than swallowing the rows after it.

    ``row_range`` is ``(first, stop)``: the data rows after the first
    ``first``, up to row number ``stop`` (None: to the end). The rows before
    it are parsed and dropped, so a row's number is its number in the whole
    input, wherever quoted newlines fall.
    """
    reader = csv.reader(source, strict=True)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvStructure("empty input: no header row") from None
    except csv.Error as exc:
        raise CsvStructure(f"unreadable header row: {exc}") from None

    positions: dict[str, int] = {}
    for logical, header_name in columns.items():
        if header_name in header:
            positions[logical] = header.index(header_name)
        elif logical not in optional:
            raise CsvStructure(f"missing mapped header {header_name!r}")

    def reject(row_number: int, reason: str, data) -> None:
        if rejects is not None:
            rejects({"source": label, "row": row_number, "reason": reason, "data": data})

    def rows() -> Iterator[tuple[int, list[str]]]:
        width = len(header)
        row_number, stop = row_range
        try:
            # The rows before the range, dropped in C. Broken quoting there
            # is the error of the range that holds it, read before this one.
            deque(islice(reader, row_number), maxlen=0)
            for row in islice(reader, None if stop is None else stop - row_number):
                row_number += 1
                if len(row) != width:
                    reject(row_number, "field_count", row)
                    continue
                yield row_number, row
        except csv.Error as exc:
            raise CsvStructure(
                f"broken CSV structure near data row {row_number + 1}: {exc}"
            ) from None

    return positions, rows(), reject


def load_packages(
    source: Iterable[str],
    rejects: RejectSink | None = None,
    platform_aliases: dict[str, str] | None = None,
    row_range: tuple[int, int | None] = (0, None),
) -> Iterator[PackageRecord]:
    """Stream PackageRecords out of a package-metadata CSV's data rows in ``row_range``.

    Rows with an empty name or platform go to the rejects sink instead of
    being dropped; every data row ends up as exactly one record or one
    reject entry. Raises CsvStructure when a mapped header is missing or
    the CSV quoting is broken.
    """
    aliases = {k.lower(): v for k, v in (platform_aliases or {}).items()}
    positions, rows, reject = _read_csv(
        source, DEFAULT_PACKAGE_COLUMNS, "packages", rejects,
        optional=frozenset({"keywords", "license"}), row_range=row_range,
    )
    for row_number, row in rows:
        name = normalize_component(row[positions["name"]])
        platform_raw = row[positions["platform"]].strip()
        platform = aliases.get(platform_raw.lower(), platform_raw)
        if not name:
            reject(row_number, "empty_name", row)
            continue
        if not platform:
            reject(row_number, "empty_platform", row)
            continue
        keywords = ()
        if "keywords" in positions:
            keywords = _split_keywords(row[positions["keywords"]])
        license_label = ""
        if "license" in positions:
            license_label = row[positions["license"]].strip()
        yield PackageRecord(
            row[positions["id"]].strip(), platform, name, keywords, license_label,
            extract_repo_link(row[positions["repository_url"]]),
        )


def load_versions(
    source: Iterable[str],
    rejects: RejectSink | None = None,
    platform_aliases: dict[str, str] | None = None,
    row_range: tuple[int, int | None] = (0, None),
) -> Iterator[VersionRecord]:
    """Stream VersionRecords out of a published-versions CSV's data rows in ``row_range``."""
    aliases = {k.lower(): v for k, v in (platform_aliases or {}).items()}
    positions, rows, reject = _read_csv(
        source, DEFAULT_VERSION_COLUMNS, "versions", rejects, row_range=row_range
    )
    for row_number, row in rows:
        published = parse_date(row[positions["published"]])
        if published is None:
            reject(row_number, "bad_date", row)
            continue
        platform_raw = row[positions["platform"]].strip()
        yield VersionRecord(
            row[positions["id"]].strip(), aliases.get(platform_raw.lower(), platform_raw),
            row[positions["version"]].strip(), published,
        )


def count_versions(versions: Iterable[VersionRecord]) -> list[VersionCount]:
    """Count the versions per (platform, year published); the cells sorted by both."""
    counter = Counter((v.platform, v.published.year) for v in versions)
    return [VersionCount(platform, year, n) for (platform, year), n in sorted(counter.items())]


def _iter_json_values(source: Iterable[str]) -> Iterator:
    """Yield the top-level values of a JSON array of objects or of NDJSON.

    A first non-space "[" selects the array layout: its items must be
    objects separated by single commas, and a "]" followed only by
    whitespace must end the input. A first "{" selects NDJSON:
    whitespace-separated values of any type. A file source is read
    ``_READ_CHARS`` at a time; any other iterable item by item. The buffer
    keeps only the unread text and grows while an entry is cut off, so
    memory is bounded by the largest entry, not the document. A malformed
    entry is only reported at end of input, since until then it may merely
    be incomplete.
    """
    if hasattr(source, "read"):
        chunks = iter(lambda: source.read(_READ_CHARS), "")
    else:
        chunks = iter(source)
    decode = json.JSONDecoder().raw_decode
    buf, pos, eof = "", 0, False
    # None: before the first value; in an array, "[": after its "[", "}": after
    # an entry, ",": after a comma; "]": after the array; "{": NDJSON.
    layout = None
    count = 0

    def refill(want: int) -> None:
        """Drop the consumed text and append at least ``want`` chars, or hit EOF."""
        nonlocal buf, pos, eof
        parts, got = [buf[pos:]], 0
        for chunk in chunks:
            parts.append(chunk)
            got += len(chunk)
            if got >= want:
                break
        else:
            eof = True
        buf, pos = "".join(parts), 0

    while True:
        pos = _WHITESPACE.match(buf, pos).end()
        if pos == len(buf):
            if eof:
                break
            refill(1)
            continue
        first = buf[pos]
        if layout is None:
            if first not in "[{":
                raise JsonStructure(f"expected JSON array or object lines, found {first!r}")
            layout = first
            if layout == "[":
                pos += 1
                continue
        elif layout == "]":
            raise JsonStructure(f"unexpected {first!r} after the end of the JSON array")
        elif layout in ("[", "}") and first == "]":
            layout, pos = "]", pos + 1
            continue
        elif layout == "}":
            if first != ",":
                raise JsonStructure(f"expected ',' or ']' after entry {count}, found {first!r}")
            layout, pos = ",", pos + 1
            continue
        elif layout in ("[", ",") and first != "{":
            raise JsonStructure(f"expected object in array, found {first!r}")
        try:
            value, end = decode(buf, pos)
        except json.JSONDecodeError as exc:
            if eof:
                raise JsonStructure(f"invalid JSON in entry {count + 1}: {exc}") from None
            end = len(buf)
        # An entry that fails to decode, or a number that ends the buffer,
        # may continue in the next read.
        if end == len(buf) and not eof:
            refill(len(buf) - pos)
            continue
        count += 1
        pos = end
        if layout != "{":
            layout = "}"
        yield value
    if layout is None:
        raise JsonStructure("empty input: no JSON array or objects found")
    if layout in ("[", "}", ","):
        raise JsonStructure(f"truncated JSON array: no closing ']' after entry {count}")


def _is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8; text holding a lone surrogate does not.

    JSON decodes an unpaired escape such as ``"\\ud800"`` to a lone surrogate.
    """
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _as_list(value) -> list:
    """Coerce a dump field to a list; a bare string counts as one element."""
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, str) and value:
        return [value]
    return []


def load_cves(
    source: Iterable[str],
    field_map: dict[str, str] | None = None,
    rejects: RejectSink | None = None,
    tallies: dict | None = None,
) -> Iterator[CveRecord]:
    """Stream CveRecords out of a CVE JSON dump (array or NDJSON).

    ``source`` is an open text file or any iterable of text chunks. Memory
    is bounded by the largest entry for both layouts, a one-line array
    included. A value that is not an object becomes a ``not_an_object``
    reject (NDJSON only; in an array it is a JsonStructure error, as are
    empty, truncated and unparseable input). Unparseable CPE strings inside an entry are counted under
    ``tallies["malformed_cpes"]`` and skipped; the entry is still yielded,
    with the distinct ``(product, target_sw)`` pairs of its other CPEs.
    Entries without a well-formed CVE id (or repeating one) become rejects,
    as do entries whose text holds a lone surrogate (``unencodable_text``).
    """
    fields = dict(DEFAULT_CVE_FIELDS)
    if field_map:
        fields.update(field_map)

    def reject(index: int, reason: str, data) -> None:
        if rejects is not None:
            if not _is_utf8(json.dumps(data, ensure_ascii=False)):
                data = json.dumps(data)  # the same value with its lone surrogates escaped
            rejects({"source": "cves", "row": index, "reason": reason, "data": data})

    def tally(key: str, amount: int = 1) -> None:
        if tallies is not None:
            tallies[key] = tallies.get(key, 0) + amount

    seen_ids: set[str] = set()
    for index, entry in enumerate(_iter_json_values(source), 1):
        if not isinstance(entry, dict):
            reject(index, "not_an_object", entry)
            continue
        cve_id = str(entry.get(fields["id"]) or "").strip()
        if not CVE_ID_RE.match(cve_id):
            reject(index, "bad_cve_id", cve_id)
            continue
        if cve_id in seen_ids:
            reject(index, "duplicate_cve_id", cve_id)
            continue
        seen_ids.add(cve_id)

        cpes, malformed = [], 0
        for item in _as_list(entry.get(fields["cpes"])):
            cpe_str = item.get("id") if isinstance(item, dict) else item
            try:
                cpes.append(parse_cpe23(str(cpe_str)))
            except MalformedCpe:
                malformed += 1
        summary = str(entry.get(fields["summary"]) or "")
        references = tuple(
            str(ref) for ref in _as_list(entry.get(fields["references"])) if ref
        )
        if not _is_utf8("".join((summary, *references, *(c.raw for c in cpes)))):
            reject(index, "unencodable_text", cve_id)
            continue
        if malformed:
            tally("malformed_cpes", malformed)
        yield CveRecord(
            cve_id, summary, references, parse_date(entry.get(fields["published"])),
            tuple(map(CveCpe._make, dict.fromkeys((c.product, c.target_sw) for c in cpes))),
        )


def cve_products(cve: CveRecord) -> list[str]:
    """Distinct non-wildcard product values of a CVE, in first-seen order."""
    seen: dict[str, None] = {}
    for cpe in cve.cpes:
        if cpe.product not in ("*", "-") and cpe.product:
            seen.setdefault(cpe.product)
    return list(seen)
