"""Streaming ingestion of package-metadata CSV and CVE JSON dumps."""

from __future__ import annotations

import csv
import gzip
import json
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO
from urllib.parse import urlsplit

from .cpe import CpeRecord, MalformedCpe, normalize_component, parse_cpe23

SUPPORTED_PROVIDERS = ("github.com", "bitbucket.org", "gitlab.com")

CVE_ID_RE = re.compile(r"CVE-\d{4}-\d{4,}$")
_DATE_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})")
_WHITESPACE = re.compile(r"\s*")
_ARRAY_SEPARATORS = re.compile(r"[\s,\]]*")
# Characters per read of a CVE dump file. Larger reads cut fewer entries
# off but hold more text: with 64 KiB reads a small-entry NDJSON load
# peaked at 0.33 MB traced, against 0.05 MB with these.
_READ_CHARS = 8192

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


@dataclass(frozen=True)
class RepoRef:
    provider: str
    owner: str
    repository: str

    @property
    def repo_link(self) -> str:
        return f"{self.provider}/{self.owner}/{self.repository}"


@dataclass(frozen=True)
class PackageRecord:
    package_key: str
    platform: str
    name: str
    keywords: tuple[str, ...] = ()
    license: str = ""
    repo: RepoRef | None = None


@dataclass(frozen=True)
class VersionRecord:
    package_key: str
    platform: str
    version_label: str
    published: date


@dataclass(frozen=True)
class CveRecord:
    cve_id: str
    summary: str
    references: tuple[str, ...]
    published: date | None
    cpes: tuple[CpeRecord, ...]

    @property
    def year(self) -> int:
        """Publication year, falling back to the year embedded in the id."""
        if self.published is not None:
            return self.published.year
        return int(self.cve_id.split("-")[1])


@dataclass
class IndexSet:
    """Lookup indexes over an ingested corpus; immutable once built."""

    by_name: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    by_repo_link: dict[str, list[str]] = field(default_factory=dict)


def parse_date(text) -> date | None:
    """Extract a calendar date from ISO-ish timestamp text, or None."""
    if not text:
        return None
    m = _DATE_RE.match(str(text).strip())
    if not m:
        return None
    try:
        return date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except ValueError:
        return None


def open_text_auto(path: str | Path) -> TextIO:
    """Open a text file, transparently decompressing gzip (magic 0x1F 0x8B).

    Decodes as UTF-8 and tolerates a leading BOM.
    """
    with open(path, "rb") as raw:
        magic = raw.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8-sig", newline="")
    return open(path, encoding="utf-8-sig", newline="")


def extract_repo_ref(url: str) -> RepoRef | None:
    """Pull (provider, owner, repository) out of a repository URL.

    Scheme, "www." prefixes, userinfo and ports are ignored; the trailing
    ".git" is stripped from the repository segment. Returns None for
    unsupported hosts or paths with fewer than two meaningful segments.
    """
    if not url:
        return None
    s = url.strip()
    if not s:
        return None
    if "://" not in s:
        s = "//" + s.lstrip("/")
    try:
        parts = urlsplit(s)
    except ValueError:
        return None
    host = parts.netloc.rsplit("@", 1)[-1].split(":")[0].lower()
    if host.startswith("www."):
        host = host[4:]
    if host not in SUPPORTED_PROVIDERS:
        return None
    segments = [seg for seg in parts.path.split("/") if seg]
    if len(segments) < 2:
        return None
    owner = segments[0].lower()
    repository = segments[1].lower()
    if repository.endswith(".git"):
        repository = repository[: -len(".git")]
    if not owner or not repository:
        return None
    return RepoRef(provider=host, owner=owner, repository=repository)


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
) -> tuple[dict[str, int], Iterator[tuple[int, list[str]]], Callable[[int, str, object], None]]:
    """Read a CSV header, then stream the data rows as ``(row_number, row)``.

    Returns the column index of each logical field in ``columns``, the row
    stream, and a ``reject(row_number, reason, data)`` function that files
    rejects under ``label``. Rows whose width differs from the header's are
    rejected as ``field_count`` and not yielded. Raises CsvStructure for an
    empty input, a missing header that is not ``optional``, or broken quoting.
    """
    reader = csv.reader(source)
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
        row_number = 0
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise CsvStructure(
                    f"broken CSV structure near data row {row_number + 1}: {exc}"
                ) from None
            row_number += 1
            if len(row) != width:
                reject(row_number, "field_count", row)
                continue
            yield row_number, row

    return positions, rows(), reject


def load_packages(
    source: Iterable[str],
    column_map: dict[str, str] | None = None,
    rejects: RejectSink | None = None,
    platform_aliases: dict[str, str] | None = None,
) -> Iterator[PackageRecord]:
    """Stream PackageRecords out of a package-metadata CSV.

    Rows with an empty name or platform go to the rejects sink instead of
    being dropped; every data row ends up as exactly one record or one
    reject entry. Raises CsvStructure when a mapped header is missing or
    the CSV quoting is broken.
    """
    aliases = {k.lower(): v for k, v in (platform_aliases or {}).items()}
    positions, rows, reject = _read_csv(
        source, {**DEFAULT_PACKAGE_COLUMNS, **(column_map or {})}, "packages", rejects,
        optional=frozenset({"keywords", "license"}),
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
            package_key=row[positions["id"]].strip(),
            platform=platform,
            name=name,
            keywords=keywords,
            license=license_label,
            repo=extract_repo_ref(row[positions["repository_url"]]),
        )


def load_versions(
    source: Iterable[str],
    column_map: dict[str, str] | None = None,
    rejects: RejectSink | None = None,
    platform_aliases: dict[str, str] | None = None,
) -> Iterator[VersionRecord]:
    """Stream VersionRecords out of a published-versions CSV."""
    aliases = {k.lower(): v for k, v in (platform_aliases or {}).items()}
    positions, rows, reject = _read_csv(
        source, {**DEFAULT_VERSION_COLUMNS, **(column_map or {})}, "versions", rejects
    )
    for row_number, row in rows:
        published = parse_date(row[positions["published"]])
        if published is None:
            reject(row_number, "bad_date", row)
            continue
        platform_raw = row[positions["platform"]].strip()
        yield VersionRecord(
            package_key=row[positions["id"]].strip(),
            platform=aliases.get(platform_raw.lower(), platform_raw),
            version_label=row[positions["version"]].strip(),
            published=published,
        )


def _iter_json_values(source: Iterable[str]) -> Iterator:
    """Yield the top-level values of a JSON array of objects or of NDJSON.

    A first non-space "[" selects the array layout: its items must be
    objects, separated by ",", "]" or whitespace. A first "{" selects
    NDJSON: whitespace-separated values of any type. A file source is read
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
    in_array = None
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
        pos = (_ARRAY_SEPARATORS if in_array else _WHITESPACE).match(buf, pos).end()
        if pos == len(buf):
            if eof:
                break
            refill(1)
            continue
        first = buf[pos]
        if in_array is None:
            if first not in "[{":
                raise JsonStructure(f"expected JSON array or object lines, found {first!r}")
            in_array = first == "["
            if in_array:
                pos += 1
                continue
        elif in_array and first != "{":
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
        yield value
    if in_array is None:
        raise JsonStructure("empty input: no JSON array or objects found")


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
    ``tallies["malformed_cpes"]`` and skipped; the entry is still yielded.
    Entries without a well-formed CVE id (or repeating one) become rejects.
    """
    fields = dict(DEFAULT_CVE_FIELDS)
    if field_map:
        fields.update(field_map)

    def reject(index: int, reason: str, data) -> None:
        if rejects is not None:
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

        cpes = []
        for item in _as_list(entry.get(fields["cpes"])):
            cpe_str = item.get("id") if isinstance(item, dict) else item
            try:
                cpes.append(parse_cpe23(str(cpe_str)))
            except MalformedCpe:
                tally("malformed_cpes")
        references = tuple(
            str(ref) for ref in _as_list(entry.get(fields["references"])) if ref
        )
        yield CveRecord(
            cve_id=cve_id,
            summary=str(entry.get(fields["summary"]) or ""),
            references=references,
            published=parse_date(entry.get(fields["published"])),
            cpes=tuple(cpes),
        )


def cve_products(cve: CveRecord) -> list[str]:
    """Distinct non-wildcard product values of a CVE, in first-seen order."""
    seen: dict[str, None] = {}
    for cpe in cve.cpes:
        if cpe.product not in ("*", "-") and cpe.product:
            seen.setdefault(cpe.product)
    return list(seen)


def build_indexes(packages: list[PackageRecord]) -> IndexSet:
    """Build the matcher lookup indexes; source order is preserved."""
    indexes = IndexSet()
    for pkg in packages:
        indexes.by_name.setdefault((pkg.platform, pkg.name), []).append(pkg.package_key)
        if pkg.repo is not None:
            indexes.by_repo_link.setdefault(pkg.repo.repo_link, []).append(pkg.package_key)
    return indexes
