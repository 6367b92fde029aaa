"""Workspace directory: normalized-record snapshots and mapping output files.

Every artifact is newline-delimited JSON (or plain JSON for the summary)
with a fixed field order, so identical inputs always produce byte-identical
files. A store snapshot holds one JSON array per record, its fields in
order; a mapping file holds one object per result.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import shutil
from datetime import date
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .records import (
    _READ_CHARS, CVE_ID_RE, KEY_STRATEGIES, CveCpe, CveRecord, Evidence, MappingResult,
    PackageRecord, VersionCount,
)

LOCK_NAME = ".lock"
STAGING_NAME = ".staging"
# Recorded in summary.json; bump it when a store record's fields change.
STORE_LAYOUT = 4
# The counts in summary.json: the packages, versions and CVEs ingested, and ingest's tally.
_SUMMARY_COUNTS = ("packages", "versions", "cves", "malformed_cpes")


class WorkspaceLocked(RuntimeError):
    """Another command currently holds the workspace lock."""


class StoreWriteError(OSError):
    """An OSError in writing a workspace file, raised again with the file's name."""

    def __str__(self) -> str:
        return f"cannot write store file {self.filename}: {self.strerror}"


@contextlib.contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Raise an OSError of the block as a StoreWriteError that names ``path``."""
    try:
        yield
    except OSError as exc:
        raise StoreWriteError(exc.errno, exc.strerror, str(path)) from None


def _append(path: Path, parts: Iterable[Path]) -> None:
    """Append the bytes of each file of ``parts`` to ``path``, in order, removing each."""
    with _writing(path), open(path, "ab") as out:
        for part in parts:
            with open(part, "rb") as src:
                shutil.copyfileobj(src, out)
            part.unlink()


class CorruptStore(ValueError):
    """A workspace file that does not read back as the rows its writer wrote."""

    def __init__(self, path: Path, exc: Exception, rerun: str = "ingest"):
        # A JSON error's position is within a block of lines, not the file.
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        super().__init__(
            f"corrupt store file {path}: {type(exc).__name__}: {reason}; "
            f"run 'vulnmap {rerun}' again"
        )


# The C encoder that JSONEncoder.encode builds anew on every call, built once.
# It writes what json.dumps(doc, ensure_ascii=False, separators=(", ", ": "),
# default=date.isoformat) writes, without the circular-reference memo: no
# record, mapping document or reject holds a cycle. A record (a NamedTuple)
# becomes the JSON array of its fields. The arguments are: markers, default,
# string encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan.
_encode = c_make_encoder(
    None, date.isoformat, encode_basestring, None, ": ", ", ", False, False, True
)


def _dumps(doc) -> str:
    return "".join(_encode(doc, 0))


def mapping_to_dict(result: MappingResult) -> dict:
    return {
        "strategy": result.strategy.value,
        "cve": result.cve_id,
        "package": result.package_key,
        "platform": result.platform,
        "confidence": result.confidence,
        "evidence": {"kind": result.evidence.kind, "payload": list(result.evidence.payload)},
    }


def sha256_file(path: str | Path) -> str:
    import hashlib  # only here: it loads OpenSSL, which only ingest's digests need

    digest = hashlib.sha256()
    block = bytearray(1 << 16)  # one buffer for the whole file, not a new bytes per read
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            digest.update(view[:n])
    return digest.hexdigest()


class Workspace:
    """Filesystem layout of one pipeline run."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def ensure(self) -> "Workspace":
        self.root.mkdir(parents=True, exist_ok=True)
        return self

    # -- paths ------------------------------------------------------------

    @property
    def packages_path(self) -> Path:
        return self.root / "packages.ndjson"

    @property
    def versions_path(self) -> Path:
        return self.root / "versions.ndjson"

    @property
    def cves_path(self) -> Path:
        return self.root / "cves.ndjson"

    @property
    def rejects_path(self) -> Path:
        return self.root / "rejects.ndjson"

    @property
    def summary_path(self) -> Path:
        return self.root / "summary.json"

    @property
    def manifest_path(self) -> Path:
        return self.root / "mappings.json"

    def mappings_path(self, strategy_key: str) -> Path:
        return self.root / f"mappings_{strategy_key}.ndjson"

    def report_path(self, name: str, format: str) -> Path:
        return self.root / f"report_{name.replace('-', '_')}.{format}"

    # -- locking ----------------------------------------------------------

    @contextlib.contextmanager
    def lock(self) -> Iterator[None]:
        """Hold an exclusive flock on ``.lock``; the kernel drops it if the holder dies.

        The file is never unlinked: a later command would lock a new inode
        while a holder still locks the old one.
        """
        self.ensure()
        with open(self.root / LOCK_NAME, "a") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise WorkspaceLocked(
                    f"workspace {self.root} is locked by another command"
                ) from None
            yield

    @contextlib.contextmanager
    def staging(self) -> Iterator["Workspace"]:
        """Yield an empty workspace in ``.staging``; commit its files when the block ends.

        On a normal exit each staged file replaces the file of the same name
        here with ``os.replace``, ``summary.json`` or ``mappings.json``, the
        file that holds the others' row counts, last. On an exception the
        staged files are discarded and no file here changes. Call it while
        holding the lock.
        """
        stage = Workspace(self.root / STAGING_NAME)
        shutil.rmtree(stage.root, ignore_errors=True)  # left by a killed command
        stage.ensure()
        try:
            yield stage
            counts = (stage.summary_path.name, stage.manifest_path.name)
            for path in sorted(stage.root.iterdir(), key=lambda p: p.name in counts):
                os.replace(path, self.root / path.name)
        finally:
            shutil.rmtree(stage.root, ignore_errors=True)

    # -- ndjson -----------------------------------------------------------

    @contextlib.contextmanager
    def ndjson_sink(self, path: Path) -> Iterator[Callable[[object], None]]:
        """Yield a function that writes one document to ``path`` as one line.

        An OSError in opening, writing or closing ``path`` (a full disk, say)
        is raised as StoreWriteError; one raised by the caller's block, such
        as a failed read of its input, passes unchanged.
        """
        def write(doc) -> None:
            try:
                fh.write(_dumps(doc) + "\n")
            except OSError as exc:
                raise StoreWriteError(exc.errno, exc.strerror, str(path)) from None

        with _writing(path):
            fh = open(path, "w", encoding="utf-8", newline="")
        with fh:
            yield write
            with _writing(path):
                fh.close()  # it flushes; on an error it closes all the same

    def write_ndjson(self, path: Path, docs: Iterable) -> int:
        count = 0
        with self.ndjson_sink(path) as write:
            for count, doc in enumerate(docs, 1):
                write(doc)
        return count

    @contextlib.contextmanager
    def _rows(self, path: Path) -> Iterator[Iterator]:
        """Yield a stream of the value of each non-blank line of ``path``: the one reader.

        Whole lines of about ``_READ_CHARS`` characters are decoded at a
        time as one JSON array, so the per-row work runs in C and memory is
        bounded by one block (or its longest line). A missing file reads as
        no rows. A row the block cannot rebuild, or a stream that ends with
        another row count than summary.json records for a store file, or
        mappings.json for a mapping file (a file with no count there, or
        beside no summary.json or mappings.json at all, included), raises
        CorruptStore. summary.json counts versions, not the rows of
        ``versions.ndjson``: ``load_versions`` checks their sum itself.
        """
        key = path.stem.removeprefix("mappings_")
        mapping = key in KEY_STRATEGIES
        counts = self.manifest_path if mapping else self.summary_path
        if path.exists() and not counts.exists():  # its writer writes both, the counts last
            raise CorruptStore(
                path, FileNotFoundError(f"{counts.name} is missing"), "map" if mapping else "ingest"
            )
        expected = (self.read_manifest() if mapping else self.read_summary()).get(key)
        counted = counts.exists() and (mapping or key in ("packages", "cves"))

        def blocks() -> Iterator:
            read = 0
            if path.exists():
                with open(path, encoding="utf-8") as fh:
                    while lines := fh.readlines(_READ_CHARS):
                        block = json.loads("[" + ",".join(filter(str.strip, lines)) + "]")
                        read += len(block)
                        yield from block
                        del block  # not held while the next block is read and decoded
            if counted and read != expected:
                raise ValueError(f"{read} rows read, {counts.name} has {expected}")

        with contextlib.closing(blocks()) as rows:
            try:
                yield rows
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                raise CorruptStore(path, exc) from None

    # -- typed snapshots --------------------------------------------------

    def load_packages(self) -> Iterator[PackageRecord]:
        """Yield the packages one at a time: ``report`` only counts them."""
        shared = {}.setdefault  # one string object per distinct platform and license
        with self._rows(self.packages_path) as rows:
            for key, platform, name, keywords, license, repo_link in rows:
                # Chained: every type is the next one, and the last is str.
                if not type(key) is type(platform) is type(name) is type(license) is str:
                    raise TypeError(f"package {key!r} has a field that is not a string")
                if type(keywords) is not list:  # tuple() would split a string into letters
                    raise TypeError(f"package {key} has keywords that are not a list")
                "".join(keywords)  # a TypeError unless every keyword is a str
                if repo_link is not None and type(repo_link) is not str:
                    raise TypeError(f"package {key} has a repo_link that is not a string")
                yield PackageRecord(
                    key, shared(platform, platform), name, tuple(keywords),
                    shared(license, license), repo_link,
                )

    def load_versions(self) -> Iterator[VersionCount]:
        """Yield the count of versions per (platform, year), in order of both.

        The counts must sum to the ``versions`` that summary.json records.
        """
        expected = self.read_summary().get("versions")
        total = 0
        with self._rows(self.versions_path) as rows:
            for platform, year, count in rows:
                if type(platform) is not str:
                    raise TypeError(f"a version count has platform {platform!r}, not a string")
                if type(year) is not int:  # bool is not int
                    raise TypeError(f"{platform} has a version count for {year!r}, not a year")
                if type(count) is not int or count < 1:
                    raise ValueError(f"{platform} {year} has {count!r} versions, not a count")
                total += count
                yield VersionCount(platform, year, count)
            if self.summary_path.exists() and total != expected:
                raise ValueError(f"{total} versions counted, summary.json has {expected}")

    def load_cves(self) -> Iterator[CveRecord]:
        """Yield the CVEs one at a time; the only decoder of a ``cves.ndjson`` row."""
        with self._rows(self.cves_path) as rows:
            for cve_id, summary, references, published, cpes in rows:
                if not CVE_ID_RE.match(cve_id):  # ingest writes no other; .year reads it
                    raise ValueError(f"bad CVE id {cve_id!r}")
                if type(summary) is not str:  # the matchers lowercase it
                    raise TypeError(f"CVE {cve_id} has a summary that is not a string")
                if type(references) is not list or type(cpes) is not list:  # as keywords are
                    raise TypeError(f"CVE {cve_id} has references or CPE pairs that are not a list")
                "".join(references)  # a TypeError unless every reference is a str
                for pair in cpes:
                    if type(pair) is not list:  # CveCpe._make("ab") would split a string
                        raise TypeError(f"CVE {cve_id} has a CPE pair that is not a list")
                    "".join(pair)  # a TypeError unless both fields are str
                yield CveRecord(
                    cve_id, summary, tuple(references),
                    None if published is None else date.fromisoformat(published),
                    tuple(map(CveCpe._make, cpes)),  # a TypeError unless each pair has 2 fields
                )

    def load_mappings(self, strategy_key: str) -> Iterator[MappingResult]:
        """Yield one strategy's results one at a time: ``report`` only counts them."""
        strategy = KEY_STRATEGIES[strategy_key]
        with self._rows(self.mappings_path(strategy_key)) as rows:
            for doc in rows:
                cve_id, package_key, platform = doc["cve"], doc["package"], doc["platform"]
                # Chained as in load_packages: the reports hash and sort these.
                if not type(cve_id) is type(package_key) is type(platform) is str:
                    raise TypeError(f"mapping of {cve_id!r} has a field that is not a string")
                if doc["strategy"] != strategy.value:
                    raise ValueError(f"mapping of {cve_id} has strategy {doc['strategy']!r}")
                confidence, evidence = doc["confidence"], doc["evidence"]
                kind, payload = evidence["kind"], evidence["payload"]
                if not (type(confidence) is float and type(kind) is str and type(payload) is list):
                    raise TypeError(f"mapping of {cve_id} has a wrong confidence or evidence type")
                "".join(payload)  # a TypeError unless every payload item is a str
                yield MappingResult(
                    strategy, cve_id, package_key, platform, confidence,
                    Evidence(kind, tuple(payload)),
                )

    def _write_json(self, path: Path, doc: dict) -> None:
        with _writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(doc, fh, indent=2, ensure_ascii=False, sort_keys=True)
            fh.write("\n")

    def write_summary(self, summary: dict) -> None:
        self._write_json(self.summary_path, summary)

    def write_manifest(self, rows: dict[str, int]) -> None:
        """Record the row count of each mapping file, by strategy key, in mappings.json."""
        self._write_json(self.manifest_path, {"rows": rows})

    def read_manifest(self) -> dict[str, int]:
        """The row counts that mappings.json records, by strategy key; {} when there is none."""
        if not self.manifest_path.exists():
            return {}
        with open(self.manifest_path, encoding="utf-8") as fh:
            try:
                rows = json.load(fh)["rows"]  # a TypeError if the document is not an object
                if type(rows) is not dict:
                    raise TypeError(f"'rows' is {rows!r}, not an object")
                for key, value in rows.items():
                    if type(value) is not int or value < 0:  # bool is not int
                        raise ValueError(f"{key!r} is {value!r}, not a count")
            except (ValueError, TypeError, KeyError) as exc:
                raise CorruptStore(self.manifest_path, exc) from None
        return rows

    def read_summary(self) -> dict:
        if not self.summary_path.exists():
            return {}
        with open(self.summary_path, encoding="utf-8") as fh:
            try:
                summary = json.load(fh)
                if type(summary) is not dict:  # every reader calls .get on it
                    raise TypeError(f"summary.json holds {type(summary).__name__}, not an object")
                for key in _SUMMARY_COUNTS:
                    value = summary.get(key, 0)
                    if type(value) is not int or value < 0:  # bool is not int
                        raise ValueError(f"{key!r} is {value!r}, not a count")
                if type(summary.get("inputs", {})) is not dict:  # copied into every report
                    raise TypeError(f"'inputs' is {summary['inputs']!r}, not an object")
                if type(summary.get("store_layout", 0)) is not int:  # 3.0 == 3, True == 1
                    raise TypeError(f"'store_layout' is {summary['store_layout']!r}, not an integer")
            except (ValueError, TypeError) as exc:
                raise CorruptStore(self.summary_path, exc) from None
        return summary
