"""Streaming ingestion of package-metadata CSV and CVE JSON dumps."""

from __future__ import annotations

import csv
import gzip
import io
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
    raw = open(path, "rb")
    magic = raw.read(2)
    raw.seek(0)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw), encoding="utf-8-sig", newline="")
    return io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")


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
    columns = dict(DEFAULT_PACKAGE_COLUMNS)
    if column_map:
        columns.update(column_map)
    aliases = {k.lower(): v for k, v in (platform_aliases or {}).items()}

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvStructure("empty input: no header row") from None
    except csv.Error as exc:
        raise CsvStructure(f"unreadable header row: {exc}") from None

    positions: dict[str, int] = {}
    optional = {"keywords", "license"}
    for logical, header_name in columns.items():
        if header_name in header:
            positions[logical] = header.index(header_name)
        elif logical not in optional:
            raise CsvStructure(f"missing mapped header {header_name!r}")

    def reject(row_number: int, reason: str, data) -> None:
        if rejects is not None:
            rejects({"source": "packages", "row": row_number, "reason": reason, "data": data})

    width = len(header)
    row_number = 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise CsvStructure(f"broken CSV structure near data row {row_number + 1}: {exc}") from None
        row_number += 1
        if len(row) != width:
            reject(row_number, "field_count", row)
            continue
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
    columns = dict(DEFAULT_VERSION_COLUMNS)
    if column_map:
        columns.update(column_map)
    aliases = {k.lower(): v for k, v in (platform_aliases or {}).items()}

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvStructure("empty input: no header row") from None
    except csv.Error as exc:
        raise CsvStructure(f"unreadable header row: {exc}") from None
    positions = {}
    for logical, header_name in columns.items():
        if header_name not in header:
            raise CsvStructure(f"missing mapped header {header_name!r}")
        positions[logical] = header.index(header_name)

    def reject(row_number: int, reason: str, data) -> None:
        if rejects is not None:
            rejects({"source": "versions", "row": row_number, "reason": reason, "data": data})

    width = len(header)
    row_number = 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise CsvStructure(f"broken CSV structure near data row {row_number + 1}: {exc}") from None
        row_number += 1
        if len(row) != width:
            reject(row_number, "field_count", row)
            continue
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


def _iter_json_array_items(stream: Iterable[str]) -> Iterator[str]:
    """Yield the raw text of each top-level object in a JSON array.

    Incremental bracket/quote tracking keeps memory bounded by the largest
    single element, not the document size.
    """
    depth = 0
    in_string = False
    escaped = False
    seen_open = False
    buf: list[str] = []
    for chunk in stream:
        for ch in chunk:
            if not seen_open:
                if ch == "[":
                    seen_open = True
                elif not ch.isspace():
                    raise JsonStructure(f"expected JSON array, found {ch!r}")
                continue
            if depth == 0:
                if ch in ",]" or ch.isspace():
                    continue
                if ch != "{":
                    raise JsonStructure(f"expected object in array, found {ch!r}")
            buf.append(ch)
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    yield "".join(buf)
                    buf = []
    if not seen_open:
        raise JsonStructure("empty input: no JSON array or objects found")
    if depth != 0 or buf:
        raise JsonStructure("unterminated object in JSON array")


def _iter_json_entries(source: Iterable[str]) -> Iterator[str]:
    """Yield raw JSON object texts from an array document or NDJSON lines."""
    stream = iter(source)
    head = ""
    for chunk in stream:
        if chunk.strip():
            head = chunk
            break
    else:
        raise JsonStructure("empty input: no JSON array or objects found")
    first = head.lstrip()[0]
    if first == "[":
        yield from _iter_json_array_items(_chain_chunks(head, stream))
    elif first == "{":
        for line in _chain_chunks(head, stream):
            if line.strip():
                yield line
    else:
        raise JsonStructure(f"expected JSON array or object lines, found {first!r}")


def _chain_chunks(head: str, rest: Iterator[str]) -> Iterator[str]:
    yield head
    yield from rest


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

    Unparseable CPE strings inside an entry are counted under
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
    for index, raw in enumerate(_iter_json_entries(source), 1):
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JsonStructure(f"invalid JSON in entry {index}: {exc}") from None
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
