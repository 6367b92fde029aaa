"""The records the store writes and reads back: packages, version counts, CVEs, mappings."""

from __future__ import annotations

import enum
import re
from datetime import date
from typing import NamedTuple

# ASCII digits only: \d also matches other scripts' digits, which int() accepts.
CVE_ID_RE = re.compile(r"CVE-[0-9]{4}-[0-9]{4,}$")
# Characters per read of a CVE dump file, and per block of store lines read
# back (store.Workspace._rows). Larger reads cut fewer entries off but
# hold more text: with 64 KiB reads a small-entry NDJSON load peaked at
# 0.33 MB traced, against 0.05 MB with these.
_READ_CHARS = 8192


class PackageRecord(NamedTuple):
    package_key: str
    platform: str
    name: str
    keywords: tuple[str, ...] = ()
    license: str = ""
    repo_link: str | None = None  # "provider/owner/repository"


class VersionCount(NamedTuple):
    """The versions of one platform published in one year: a row of ``versions.ndjson``."""

    platform: str
    year: int
    count: int


class CveCpe(NamedTuple):
    """The two fields of a CPE name that mapping reads, wildcards kept."""

    product: str
    target_sw: str


class CveRecord(NamedTuple):
    cve_id: str
    summary: str
    references: tuple[str, ...]
    published: date | None
    cpes: tuple[CveCpe, ...]  # distinct, in first-seen order

    @property
    def year(self) -> int:
        """Publication year, falling back to the year embedded in the id."""
        return int(self.cve_id.split("-")[1]) if self.published is None else self.published.year


class Strategy(str, enum.Enum):
    STRICT_NAME = "strict_name"
    PARTIAL_FUZZY = "partial_fuzzy"
    REPOSITORY = "repository"


# Result-set / output-file keys.
STRATEGY_KEYS = ("strict", "fuzzy", "repository_all", "repository_first")


class Evidence(NamedTuple):
    kind: str
    payload: tuple[str, ...] = ()


class MappingResult(NamedTuple):
    strategy: Strategy
    cve_id: str
    package_key: str
    platform: str
    confidence: float
    evidence: Evidence


# The strategy that each result-set key runs.
KEY_STRATEGIES = {
    "strict": Strategy.STRICT_NAME,
    "fuzzy": Strategy.PARTIAL_FUZZY,
    "repository_all": Strategy.REPOSITORY,
    "repository_first": Strategy.REPOSITORY,
}
