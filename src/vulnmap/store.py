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
import zlib
from datetime import date
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .records import (
    _READ_CHARS, KEY_STRATEGIES, CveCpe, CveRecord, Evidence, MappingResult, PackageRecord,
    VersionCount,
)

LOCK_NAME = ".lock"
STAGING_NAME = ".staging"
# Recorded in summary.json; bump it when a store record's fields change.
STORE_LAYOUT = 5
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


def _blocks(path: str | Path) -> Iterator[memoryview]:
    """The bytes of ``path``, 64 KiB at a time, each a view of one buffer that the next refills."""
    block = bytearray(1 << 16)  # one buffer for the whole file, not a new bytes per read
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            yield view[:n]


def sha256_file(path: str | Path) -> str:
    import hashlib  # only here: it loads OpenSSL, which only ingest's digests need

    digest = hashlib.sha256()
    for data in _blocks(path):
        digest.update(data)
    return digest.hexdigest()


def _checksum(path: Path) -> dict | None:
    """The ``{"crc32", "bytes"}`` entry of the file ``path``; None if there is none."""
    crc = size = 0
    try:
        for data in _blocks(path):
            crc, size = zlib.crc32(data, crc), size + len(data)
    except FileNotFoundError:
        return None
    return {"crc32": crc, "bytes": size}


def _checksums(paths: Iterable[Path]) -> dict[str, dict]:
    """The checksum entry of each of ``paths`` that exists, by file name."""
    return {path.name: entry for path in paths if (entry := _checksum(path))}


def _described(entry: dict | None) -> str:
    return "no file" if entry is None else f"{entry['bytes']} bytes, crc32 {entry['crc32']}"


def _check_entries(doc: dict, key: str) -> None:
    """Raise unless ``doc[key]``, if there is one, maps file names to checksum entries."""
    entries = doc.get(key, {})
    if type(entries) is not dict:
        raise TypeError(f"{key!r} is {entries!r}, not an object")
    for name, entry in entries.items():
        if not (type(entry) is dict and entry.keys() == {"crc32", "bytes"}
                and all(type(value) is int for value in entry.values())):  # bool is not int
            raise ValueError(f"{key!r} has {name!r}: {entry!r}, not a crc32 and a size")


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
        file that holds the others' checksums, last. On an exception the
        staged files are discarded and no file here changes. Call it while
        holding the lock.
        """
        stage = Workspace(self.root / STAGING_NAME)
        shutil.rmtree(stage.root, ignore_errors=True)  # left by a killed command
        stage.ensure()
        try:
            yield stage
            last = (stage.summary_path.name, stage.manifest_path.name)
            for path in sorted(stage.root.iterdir(), key=lambda p: p.name in last):
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

        Before the first row, the file's size and crc32 must be the ones that
        summary.json records for a store file, or mappings.json for a mapping
        file, and a mapping file's mappings.json must record the store files
        that summary.json records; else CorruptStore. A missing file with no
        entry reads as no rows. Whole lines of about ``_READ_CHARS``
        characters are decoded at a time as one JSON array, so the per-row
        work runs in C and memory is bounded by one block (or its longest
        line).
        """
        mapping = path.name.startswith("mappings_")
        index, rerun = (self.manifest_path, "map") if mapping else (self.summary_path, "ingest")
        if path.exists() and not index.exists():  # its writer writes both, the index last
            raise CorruptStore(path, FileNotFoundError(f"{index.name} is missing"), rerun)
        doc = self.read_manifest() if mapping else self.read_summary()
        recorded, found = doc.get("files", {}).get(path.name), _checksum(path)
        if found != recorded:
            raise CorruptStore(path, ValueError(
                f"{_described(found)}; {index.name} records {_described(recorded)}"), rerun)
        if found and mapping and doc.get("store", {}) != self.read_summary().get("files", {}):
            raise CorruptStore(path, ValueError(
                "mappings.json records the files of another store than summary.json"), rerun)

        def blocks() -> Iterator:
            if found:
                with open(path, encoding="utf-8") as fh:
                    while lines := fh.readlines(_READ_CHARS):
                        block = json.loads("[" + ",".join(filter(str.strip, lines)) + "]")
                        yield from block
                        del block  # not held while the next block is read and decoded

        with contextlib.closing(blocks()) as rows:
            try:
                yield rows
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                raise CorruptStore(path, exc, rerun) from None

    # -- typed snapshots --------------------------------------------------

    def load_packages(self) -> Iterator[PackageRecord]:
        """Yield the packages one at a time: ``report`` only counts them."""
        shared = {}.setdefault  # one string object per distinct platform and license
        with self._rows(self.packages_path) as rows:
            for key, platform, name, keywords, license, repo_link in rows:
                yield PackageRecord(
                    key, shared(platform, platform), name, tuple(keywords),
                    shared(license, license), repo_link,
                )

    def load_versions(self) -> Iterator[VersionCount]:
        """Yield the count of versions per (platform, year), in order of both."""
        with self._rows(self.versions_path) as rows:
            yield from map(VersionCount._make, rows)

    def load_cves(self) -> Iterator[CveRecord]:
        """Yield the CVEs one at a time; the only decoder of a ``cves.ndjson`` row."""
        with self._rows(self.cves_path) as rows:
            for cve_id, summary, references, published, cpes in rows:
                yield CveRecord(
                    cve_id, summary, tuple(references),
                    None if published is None else date.fromisoformat(published),
                    tuple(map(CveCpe._make, cpes)),
                )

    def load_mappings(self, strategy_key: str) -> Iterator[MappingResult]:
        """Yield one strategy's results one at a time: ``report`` only counts them."""
        strategy = KEY_STRATEGIES[strategy_key]
        with self._rows(self.mappings_path(strategy_key)) as rows:
            for doc in rows:
                evidence = doc["evidence"]
                yield MappingResult(
                    strategy, doc["cve"], doc["package"], doc["platform"], doc["confidence"],
                    Evidence(evidence["kind"], tuple(evidence["payload"])),
                )

    def _write_json(self, path: Path, doc: dict) -> None:
        with _writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(doc, fh, indent=2, ensure_ascii=False, sort_keys=True)
            fh.write("\n")

    def write_summary(self, summary: dict) -> None:
        """Write ``summary`` to summary.json, with the checksum of each store file here."""
        files = _checksums((self.packages_path, self.versions_path, self.cves_path))
        self._write_json(self.summary_path, {**summary, "files": files})

    def write_manifest(self, rows: dict[str, int], mapped: Workspace | None = None) -> None:
        """Write mappings.json: the row count and checksum of each mapping file written
        here, by strategy key, and the store files' checksums in the summary.json of
        ``mapped`` (default: this workspace), the store they were mapped from.

        Each other mapping file of ``mapped`` keeps its count and checksum, if
        ``mapped``'s mappings.json records the same store.
        """
        mapped = mapped or self
        store, old = mapped.read_summary().get("files", {}), mapped.read_manifest()
        rows, files = dict(rows), _checksums(map(self.mappings_path, rows))
        if old.get("store", {}) == store:
            for key, count in old.get("rows", {}).items():
                name = self.mappings_path(key).name
                entry = old.get("files", {}).get(name)
                if key not in rows and entry and mapped.mappings_path(key).exists():
                    rows[key], files[name] = count, entry
        self._write_json(self.manifest_path, {"rows": rows, "files": files, "store": store})

    def read_manifest(self) -> dict:
        """mappings.json: the row count (``rows``) and checksum (``files``) of each mapping
        file, and the store files' checksums (``store``) it was mapped from; {} if none."""
        if not self.manifest_path.exists():
            return {}
        with open(self.manifest_path, encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
                rows = manifest["rows"]  # a TypeError if the document is not an object
                if type(rows) is not dict:
                    raise TypeError(f"'rows' is {rows!r}, not an object")
                for key, value in rows.items():
                    if type(value) is not int or value < 0:  # bool is not int
                        raise ValueError(f"{key!r} is {value!r}, not a count")
                _check_entries(manifest, "files")
                _check_entries(manifest, "store")
            except (ValueError, TypeError, KeyError) as exc:
                raise CorruptStore(self.manifest_path, exc) from None
        return manifest

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
                _check_entries(summary, "files")
            except (ValueError, TypeError) as exc:
                raise CorruptStore(self.summary_path, exc) from None
        return summary
