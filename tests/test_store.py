import functools
import hashlib
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import tracemalloc
from datetime import date
from pathlib import Path

import pytest

import vulnmap
from test_match import mk_cve, mk_pkg
from vulnmap import units
from vulnmap.ingest import (
    _READ_CHARS, CveCpe, CveRecord, PackageRecord, VersionCount, count_versions, load_cves,
    load_packages, load_versions,
)
from vulnmap.match import Evidence, MappingResult, Strategy, default_lookup_config, run_all
from vulnmap.report import (
    cve_per_year, package_counts, versions_per_year, vulnerable_package_count,
)
from vulnmap.store import (
    CorruptStore, Workspace, WorkspaceLocked, _dumps, mapping_to_dict, sha256_file,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_package_round_trip(tmp_path):
    with_repo = mk_pkg("p1", "NPM", "lodash", keywords=("a", "b"),
                       repo_url="https://github.com/lodash/lodash", license="MIT")
    without_repo = mk_pkg("p2", "Pypi", "requests")
    ws = Workspace(tmp_path).ensure()
    ws.write_ndjson(ws.packages_path, (with_repo, without_repo))
    ws.write_summary({"packages": 2})  # a store file is read against its count
    assert list(ws.load_packages()) == [with_repo, without_repo]


def test_cve_round_trip(tmp_path):
    dated = mk_cve("CVE-2019-0001", summary="s", refs=("https://x",),
                   products=[("lodash", "node.js"), ("foo\\:bar", "*")])
    undated = dated._replace(cve_id="CVE-2019-0002", published=None)
    ws = Workspace(tmp_path).ensure()
    ws.write_ndjson(ws.cves_path, (dated, undated))
    ws.write_summary({"cves": 2})
    loaded = list(ws.load_cves())
    assert loaded == [dated, undated]
    assert loaded[0].cpes == (CveCpe("lodash", "node.js"), CveCpe("foo:bar", "*"))


def test_version_round_trip(tmp_path):
    cells = [VersionCount("NPM", 2019, 3), VersionCount("Pypi", 2015, 1)]
    ws = Workspace(tmp_path).ensure()
    ws.write_ndjson(ws.versions_path, cells)
    assert ws.versions_path.read_text(encoding="utf-8") == '["NPM", 2019, 3]\n["Pypi", 2015, 1]\n'
    ws.write_summary({"versions": 4})  # the versions the cells count, not the rows
    loaded = list(ws.load_versions())
    assert loaded == cells and [type(c) for c in loaded] == [VersionCount] * 2


def test_mapping_round_trip_all_strategies(tmp_path):
    with open(FIXTURES / "packages_oracle.csv", encoding="utf-8", newline="") as fh:
        packages = list(load_packages(fh, platform_aliases={"rubygems": "Ruby"}))
    with open(FIXTURES / "cves_oracle.ndjson", encoding="utf-8") as fh:
        cves = list(load_cves(fh))
    outcome = run_all(packages, cves, default_lookup_config().lookup)
    ws = Workspace(tmp_path).ensure()
    for key, results in outcome.results.items():
        assert results
        rows = ws.write_ndjson(ws.mappings_path(key), map(mapping_to_dict, results))
        ws.write_manifest({key: rows})  # a mapping file is read against its count
        loaded = list(ws.load_mappings(key))
        assert loaded == results
        assert [type(r.strategy) for r in loaded] == [Strategy] * len(results)
        assert [type(r.evidence.payload) for r in loaded] == [tuple] * len(results)


@pytest.mark.parametrize("size", [0, 1 << 20, 5 << 19])
def test_sha256_file_equals_sha256_of_the_bytes(tmp_path, size):
    # Empty, exactly one 1 MiB block, and two and a half blocks.
    data = random.Random(size).randbytes(size)
    path = tmp_path / "input"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_workspace_snapshots(tmp_path):
    ws = Workspace(tmp_path / "ws").ensure()
    packages = [mk_pkg("p1", "NPM", "lodash"), mk_pkg("p2", "Pypi", "requests")]
    count = ws.write_ndjson(ws.packages_path, packages)
    assert count == 2
    # A store file beside no summary.json is not read unchecked.
    with pytest.raises(CorruptStore, match="summary.json is missing; run 'vulnmap ingest' again"):
        list(ws.load_packages())
    ws.write_summary({"packages": 2, "versions": 0})
    assert ws.read_summary() == {"packages": 2, "versions": 0}
    assert list(ws.load_packages()) == packages
    assert list(ws.load_versions()) == []  # file absent


def test_workspace_lock_is_exclusive_and_released(tmp_path):
    ws = Workspace(tmp_path / "ws")
    with ws.lock():
        with pytest.raises(WorkspaceLocked):
            with ws.lock():
                pass
    with ws.lock():
        pass


HOLD_LOCK = """
import sys, time
from vulnmap.store import Workspace
with Workspace(sys.argv[1]).lock():
    print("locked", flush=True)
    time.sleep(60)
"""


def test_lock_is_released_when_holder_is_killed(tmp_path):
    ws = Workspace(tmp_path / "ws")
    env = {**os.environ, "PYTHONPATH": str(Path(vulnmap.__file__).parents[1])}
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(ws.root)], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        ready, _, _ = select.select([holder.stdout], [], [], 30)
        assert ready and holder.stdout.readline() == "locked\n"
        with pytest.raises(WorkspaceLocked):
            with ws.lock():
                pass
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=30)
        holder.stdout.close()
    assert holder.returncode == -signal.SIGKILL
    assert (ws.root / ".lock").exists()  # left behind, yet no longer a lock
    with ws.lock():
        pass


def test_ndjson_is_one_compact_line_per_record(tmp_path):
    ws = Workspace(tmp_path / "ws").ensure()
    ws.write_ndjson(ws.packages_path, (mk_pkg("p1", "NPM", "x"),))
    lines = ws.packages_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == ["p1", "NPM", "x", [], "", None]


# Non-ASCII and astral text, control characters, quotes, backslashes, lone surrogates.
_TEXT_PIECES = ("a", "Z", "7", " ", "\u00e9", "\u540d", "\U0001f600", "\x00", "\n", "\x1f",
                "\x7f", '"', "\\", "/", "\ud800", "\udfff", "\u2028", "\ufeff")


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randrange(6)))


def _scalar(rng: random.Random):
    return rng.choice((
        None, True, False, 0, -1, 2**70, rng.randrange(-10**6, 10**6), 0.5, -0.0, 1e300,
        math.nan, math.inf, -math.inf, rng.random(), date(rng.randrange(1, 10_000), 12, 31),
        _text(rng),
    ))


def _nested(rng: random.Random, depth: int = 3):
    kind = rng.randrange(4) if depth else 0
    if kind == 0:
        return _scalar(rng)
    items = [_nested(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    return {_text(rng): item for item in items}


def _document(rng: random.Random):
    """A store record, mapping document or reject, or any nested value, built from rng."""
    text = functools.partial(_text, rng)
    kind = rng.randrange(6)
    if kind == 0:
        repo_link = rng.choice((None, text()))
        return PackageRecord(text(), text(), text(), (text(), text()), text(), repo_link)
    if kind == 1:
        return VersionCount(text(), rng.randrange(1, 10_000), rng.randrange(1, 10**6))
    if kind == 2:
        pair = CveCpe(text(), text())
        return CveRecord(f"CVE-2019-{rng.randrange(10**4, 10**6)}", text(), (text(),),
                         rng.choice((None, date(2019, 1, 1))), (pair, pair))
    if kind == 3:
        evidence = Evidence(text(), (text(), text()))
        return mapping_to_dict(MappingResult(rng.choice(list(Strategy)), text(), text(), text(),
                                             rng.random(), evidence))
    if kind == 4:
        return {"source": text(), "row": rng.randrange(10**6), "reason": text(),
                "data": rng.choice(([text(), text()], text(), _nested(rng)))}
    return _nested(rng)


def test_store_encoder_writes_what_json_dumps_writes():
    rng = random.Random(2022)
    for _ in range(3000):
        doc = _document(rng)
        want = json.dumps(doc, ensure_ascii=False, separators=(", ", ": "), default=date.isoformat)
        assert _dumps(doc) == want


def test_block_reader_agrees_with_per_line_decoding(tmp_path):
    packages = [
        mk_pkg(f"p{i}", "NPM", f"naïve-名前-{i}", keywords=(f"kw\u2028{i}", "ß"),
               repo_url=f"https://github.com/o/r{i}" if i % 2 else "")
        for i in range(3000)
    ]
    packages[1234] = mk_pkg("long", "Pypi", "x" * (3 * _READ_CHARS))  # a line longer than a block
    ws = Workspace(tmp_path).ensure()
    ws.write_ndjson(ws.packages_path, packages)
    rows = ws.packages_path.read_text(encoding="utf-8").split("\n")[:-1]
    assert len(rows) == len(packages)
    # Blank and whitespace-only lines between rows, a run of them longer than
    # a block, and no newline after the last row.
    lines = []
    for i, row in enumerate(rows):
        lines += [row] + ["", " \t"][: i % 3]
    lines.insert(2000, "\n" * (2 * _READ_CHARS))
    text = "\n".join(lines)
    assert len(text) > 20 * _READ_CHARS and not text.endswith("\n")
    ws.packages_path.write_text(text, encoding="utf-8")
    ws.write_summary({"packages": len(packages)})
    reference = [json.loads(line) for line in text.split("\n") if line.strip()]
    with ws._rows(ws.packages_path) as rows:
        assert list(rows) == reference
    assert list(ws.load_packages()) == packages


def test_loaded_records_hold_pairs_and_tuples(tmp_path):
    ws = Workspace(tmp_path).ensure()
    ws.write_ndjson(ws.packages_path, (
        mk_pkg("p1", "NPM", "lodash", keywords=("a", "b"), repo_url="https://github.com/a/b"),
    ))
    cve = mk_cve("CVE-2019-0001", refs=("https://x",),
                 products=[("lodash", "node.js"), ("lodash", "*")])
    ws.write_ndjson(ws.cves_path, (cve,))
    ws.write_summary({"packages": 1, "cves": 1})
    [package] = ws.load_packages()
    assert type(package.keywords) is tuple and package.repo_link == "github.com/a/b"
    [loaded] = ws.load_cves()
    assert loaded == cve
    assert type(loaded.references) is tuple and type(loaded.cpes) is tuple
    assert [type(c) for c in loaded.cpes] == [CveCpe, CveCpe]
    assert loaded.cpes == (("lodash", "node.js"), ("lodash", "*"))


def _traced_peak(fn):
    """Call ``fn``; return the peak of bytes allocated during the call and its result."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - baseline, result
    finally:
        tracemalloc.stop()


def test_report_readers_hold_no_records(tmp_path):
    # What report reads of packages.ndjson, cves.ndjson and the mapping files
    # peaks at a few blocks of lines, not at the record list a full load builds.
    ws = Workspace(tmp_path).ensure()
    platforms = ("NPM", "Pypi", "Maven", "Go")
    licenses = ("MIT", "Apache-2.0", "")
    with open(ws.packages_path, "w", encoding="utf-8") as fh:
        fh.writelines(  # 160 distinct repository links: the counters stay small
            f'["P{i}", "{platforms[i % 4]}", "name-{i}", ["kw{i % 7}"], "{licenses[i % 3]}", '
            + ("null]\n" if i % 5 == 0 else f'"github.com/o{i % 40}/r{i % 25}"]\n')
            for i in range(100_000)
        )
    cves = [
        mk_cve(f"CVE-2019-{10000 + i}", summary=f"entry {i}", refs=(f"https://github.com/o/{i}",),
               products=[(f"prod{i}-{j}", "node.js") for j in range(40)], year=2010 + i % 10)
        for i in range(1000)
    ]
    ws.write_ndjson(ws.cves_path, cves)
    ws.write_summary({"packages": 100_000, "cves": len(cves)})

    folded, counts = _traced_peak(lambda: package_counts(ws.load_packages()))
    packages = list(ws.load_packages())
    listed = sys.getsizeof(packages) + sum(sys.getsizeof(p) + sum(map(sys.getsizeof, p))
                                           for p in packages)
    assert len(packages) == sum(counts.platforms.values()) == 100_000
    assert counts == package_counts(packages)
    assert len(counts.repo_links) == 160
    assert folded * 100 < listed, (folded, listed)

    year_peak, years = _traced_peak(lambda: {c.cve_id: c.year for c in ws.load_cves()})
    cve_peak, loaded = _traced_peak(lambda: list(ws.load_cves()))
    assert loaded == cves
    assert years == {c.cve_id: c.year for c in cves}
    assert year_peak * 20 < cve_peak, (year_peak, cve_peak)

    keys = {"strict": Strategy.STRICT_NAME, "fuzzy": Strategy.PARTIAL_FUZZY}
    ws.write_manifest(dict.fromkeys(keys, 24_000))
    for key, strategy in keys.items():  # 24 000 rows over 12 (platform, package) pairs
        ws.write_ndjson(ws.mappings_path(key), (
            mapping_to_dict(MappingResult(
                strategy, f"CVE-2019-{10000 + i}", f"P{i % 3}", platforms[i % 4], 1.0,
                Evidence("product_name_equal", (f"prod{i}",)),
            ))
            for i in range(24_000)
        ))
    streamed, report = _traced_peak(
        lambda: vulnerable_package_count({key: ws.load_mappings(key) for key in keys})
    )
    mappings = {key: list(ws.load_mappings(key)) for key in keys}
    listed = sum(sys.getsizeof(m) + sum(sys.getsizeof(r) + sum(map(sys.getsizeof, r)) for r in m)
                 for m in mappings.values())
    assert report == vulnerable_package_count(mappings)
    assert report.metadata["pair_counts"] == {
        key: {platform: 6_000 for platform in sorted(platforms)} for key in keys
    }
    assert [(r.keys, r.count) for r in report.rows[:2]] == [
        (("fuzzy", "Go"), 3), (("fuzzy", "Maven"), 3),
    ]
    assert streamed * 100 < listed, (streamed, listed)


def test_versions_unit_holds_no_version_records(tmp_path):
    # ingest's versions unit keeps only a count per (platform, year): its peak
    # is a few blocks of the CSV and the digest's buffer, not the record list
    # a full load builds, and report reads only those counts.
    platforms = ("NPM", "Pypi", "Maven", "Go")
    versions = tmp_path / "versions.csv"
    with open(versions, "w", encoding="utf-8") as fh:
        fh.write("Platform,Project Name,Project ID,Number,Published Timestamp\n")
        fh.writelines(f"{platforms[i % 4]},n{i % 9000},P{i % 9000},1.{i}.0,"
                      f"20{10 + i % 10}-0{1 + i % 9}-01 00:00:00 UTC\n" for i in range(200_000))
    stage = Workspace(tmp_path / "stage").ensure()
    peak, answer = _traced_peak(lambda: units._stage_input(
        ("versions", 0), versions, (0, None), stage, {}, None))
    with open(versions, encoding="utf-8", newline="") as fh:
        records = list(load_versions(fh))
    # The list's size counted without tracemalloc, which slows each allocation several times.
    listed = sys.getsizeof(records) + sum(sys.getsizeof(v) + sum(map(sys.getsizeof, v))
                                          for v in records)
    assert answer["rows"] == len(records) == 200_000 and answer["rejects"] == 0
    assert answer["cells"] == count_versions(records)
    assert len(answer["cells"]) == 20  # each platform publishes in five of the ten years
    assert versions_per_year(answer["cells"]).metadata["total_versions"] == 200_000
    assert peak * 20 < listed, (peak, listed)


def test_map_holds_no_package_list(tmp_path, capsys):
    # The CVEs name no package, ask for a platform no package is on and link
    # no package's repository: map keeps nothing of the packages, so its peak
    # does not grow with their count, as a package list would.
    from vulnmap import cli

    platforms = ("NPM", "Pypi", "Maven", "Go")
    cves = [
        mk_cve(f"CVE-2019-{10000 + i}", summary=f"rubygems entry {i}",
               refs=(f"https://github.com/absent/r{i}",),
               products=[(f"absent{i}-{j}", "node.js") for j in range(4)])
        for i in range(200)
    ]
    peaks = {}
    for count in (10_000, 40_000):
        ws = Workspace(tmp_path / str(count)).ensure()
        with open(ws.packages_path, "w", encoding="utf-8") as fh:
            fh.writelines(
                f'["P{i}", "{platforms[i % 4]}", "name-{i}", ["kw{i % 7}"], "MIT", '
                f'"github.com/o{i}/r{i}"]\n'
                for i in range(count)
            )
        ws.write_ndjson(ws.cves_path, cves)
        ws.write_summary({"packages": count, "versions": 0, "cves": len(cves),
                          "store_layout": vulnmap.store.STORE_LAYOUT})
        peaks[count], code = _traced_peak(lambda: cli.main(["map", "--workspace", str(ws.root)]))
        out, err = capsys.readouterr()
        assert code == 0, err
        summary = json.loads(out)
        assert summary["results"] == dict.fromkeys(summary["results"], 0)
        assert summary["tallies"]["fuzzy"]["unmatched"] == len(cves)  # Ruby was inferred
    packages = list(ws.load_packages())
    listed = sys.getsizeof(packages) + sum(sys.getsizeof(p) + sum(map(sys.getsizeof, p))
                                           for p in packages)
    # What the 30 000 more packages take as a list: a twentieth of it is the bound.
    grown = listed * 30_000 // 40_000
    assert (peaks[40_000] - peaks[10_000]) * 20 < grown, (peaks, grown)
