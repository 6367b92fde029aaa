"""Workspace directory: normalized-record snapshots and mapping output files.

Every artifact is newline-delimited JSON (or plain JSON for the summary)
with a fixed field order, so identical inputs always produce byte-identical
files.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
from datetime import date
from pathlib import Path
from typing import Iterable, Iterator

from .cpe import CpeRecord, Part
from .ingest import CveRecord, PackageRecord, RepoRef, VersionRecord
from .match import Evidence, MappingResult, Strategy

LOCK_NAME = ".lock"


class WorkspaceLocked(RuntimeError):
    """Another command currently holds the workspace lock."""


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(", ", ": "))


def package_to_dict(pkg: PackageRecord) -> dict:
    repo = None
    if pkg.repo is not None:
        repo = {
            "provider": pkg.repo.provider,
            "owner": pkg.repo.owner,
            "repository": pkg.repo.repository,
        }
    return {
        "key": pkg.package_key,
        "platform": pkg.platform,
        "name": pkg.name,
        "keywords": list(pkg.keywords),
        "license": pkg.license,
        "repo": repo,
    }


def package_from_dict(doc: dict) -> PackageRecord:
    repo = None
    if doc.get("repo"):
        repo = RepoRef(
            provider=doc["repo"]["provider"],
            owner=doc["repo"]["owner"],
            repository=doc["repo"]["repository"],
        )
    return PackageRecord(
        package_key=doc["key"],
        platform=doc["platform"],
        name=doc["name"],
        keywords=tuple(doc.get("keywords", ())),
        license=doc.get("license", ""),
        repo=repo,
    )


def version_to_dict(version: VersionRecord) -> dict:
    return {
        "key": version.package_key,
        "platform": version.platform,
        "version": version.version_label,
        "published": version.published.isoformat(),
    }


def version_from_dict(doc: dict) -> VersionRecord:
    return VersionRecord(
        package_key=doc["key"],
        platform=doc["platform"],
        version_label=doc["version"],
        published=date.fromisoformat(doc["published"]),
    )


def cpe_to_dict(cpe: CpeRecord) -> dict:
    return {
        "part": cpe.part.value,
        "vendor": cpe.vendor,
        "product": cpe.product,
        "version": cpe.version,
        "update": cpe.update,
        "edition": cpe.edition,
        "language": cpe.language,
        "sw_edition": cpe.sw_edition,
        "target_sw": cpe.target_sw,
        "target_hw": cpe.target_hw,
        "other": cpe.other,
        "raw": cpe.raw,
    }


def cpe_from_dict(doc: dict) -> CpeRecord:
    return CpeRecord(
        part=Part(doc["part"]),
        vendor=doc["vendor"],
        product=doc["product"],
        version=doc["version"],
        update=doc["update"],
        edition=doc["edition"],
        language=doc["language"],
        sw_edition=doc["sw_edition"],
        target_sw=doc["target_sw"],
        target_hw=doc["target_hw"],
        other=doc["other"],
        raw=doc["raw"],
    )


def cve_to_dict(cve: CveRecord) -> dict:
    return {
        "id": cve.cve_id,
        "summary": cve.summary,
        "references": list(cve.references),
        "published": None if cve.published is None else cve.published.isoformat(),
        "cpes": [cpe_to_dict(c) for c in cve.cpes],
    }


def cve_from_dict(doc: dict) -> CveRecord:
    published = doc.get("published")
    return CveRecord(
        cve_id=doc["id"],
        summary=doc.get("summary", ""),
        references=tuple(doc.get("references", ())),
        published=None if published is None else date.fromisoformat(published),
        cpes=tuple(cpe_from_dict(c) for c in doc.get("cpes", ())),
    )


def mapping_to_dict(result: MappingResult) -> dict:
    return {
        "strategy": result.strategy.value,
        "cve": result.cve_id,
        "package": result.package_key,
        "platform": result.platform,
        "confidence": result.confidence,
        "evidence": {"kind": result.evidence.kind, "payload": list(result.evidence.payload)},
    }


def mapping_from_dict(doc: dict) -> MappingResult:
    return MappingResult(
        strategy=Strategy(doc["strategy"]),
        cve_id=doc["cve"],
        package_key=doc["package"],
        platform=doc["platform"],
        confidence=doc["confidence"],
        evidence=Evidence(
            kind=doc["evidence"]["kind"], payload=tuple(doc["evidence"]["payload"])
        ),
    )


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
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

    def mappings_path(self, strategy_key: str) -> Path:
        return self.root / f"mappings_{strategy_key}.ndjson"

    def report_path(self, name: str, format: str) -> Path:
        return self.root / f"report_{name.replace('-', '_')}.{format}"

    def has_store(self) -> bool:
        return self.packages_path.exists() and self.cves_path.exists()

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

    # -- ndjson -----------------------------------------------------------

    def write_ndjson(self, path: Path, docs: Iterable[dict]) -> int:
        count = 0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for doc in docs:
                fh.write(_dumps(doc))
                fh.write("\n")
                count += 1
        return count

    def read_ndjson(self, path: Path) -> Iterator[dict]:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    yield json.loads(line)

    # -- typed snapshots --------------------------------------------------

    def load_packages(self) -> list[PackageRecord]:
        return [package_from_dict(d) for d in self.read_ndjson(self.packages_path)]

    def load_versions(self) -> list[VersionRecord]:
        if not self.versions_path.exists():
            return []
        return [version_from_dict(d) for d in self.read_ndjson(self.versions_path)]

    def load_cves(self) -> list[CveRecord]:
        return [cve_from_dict(d) for d in self.read_ndjson(self.cves_path)]

    def load_mappings(self, strategy_key: str) -> list[MappingResult]:
        path = self.mappings_path(strategy_key)
        return [mapping_from_dict(d) for d in self.read_ndjson(path)]

    def write_summary(self, summary: dict) -> None:
        with open(self.summary_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(summary, fh, indent=2, ensure_ascii=False, sort_keys=True)
            fh.write("\n")

    def read_summary(self) -> dict:
        if not self.summary_path.exists():
            return {}
        with open(self.summary_path, encoding="utf-8") as fh:
            return json.load(fh)
