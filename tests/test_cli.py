import csv
import errno
import gzip
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import traceback
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

import pytest

import vulnmap
from vulnmap import cli, store, units
from vulnmap.cli import ALL_REPORTS, REPORT_FORMATS, main
from vulnmap.store import Workspace

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parent.parent / "README.md"
PACKAGES = str(FIXTURES / "packages_small.csv")
CVES = str(FIXTURES / "cves_small.ndjson")
GOLDEN_SHARE = FIXTURES / "golden_platform_share.csv"

VERSIONS_CSV = (
    "Platform,Project Name,Project ID,Number,Published Timestamp\n"
    "NPM,lodash,P001,4.17.11,2019-02-03 10:00:00 UTC\n"
    "NPM,lodash,P001,3.0.0,2015-01-10 00:00:00 UTC\n"
    "Rubygems,rails,P080,6.0.0,2019-08-16 00:00:00 UTC\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ingest(capsys, workspace, packages=PACKAGES, cves=CVES, *extra):
    return run(
        capsys, "ingest", "--workspace", str(workspace),
        "--packages", packages, "--cves", cves, *extra,
    )


def workspace_bytes(workspace: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted(workspace.iterdir())
        if p.is_file()
    }


def test_ingest_summary_counts(tmp_path, capsys):
    code, out, err = ingest(capsys, tmp_path / "ws")
    assert code == 0
    summary = json.loads(out)
    assert summary["packages"] == 97
    assert summary["cves"] == 50
    assert summary["rejects"]["total"] == 3
    assert summary["malformed_cpes"] == 3
    ws = tmp_path / "ws"
    assert (ws / "packages.ndjson").exists()
    assert (ws / "cves.ndjson").exists()
    assert (ws / "rejects.ndjson").exists()


def test_ingest_with_versions(tmp_path, capsys):
    versions = tmp_path / "versions.csv"
    versions.write_text(VERSIONS_CSV, encoding="utf-8")
    code, out, _ = ingest(capsys, tmp_path / "ws", PACKAGES, CVES, "--versions", str(versions))
    assert code == 0
    assert json.loads(out)["versions"] == 3


def test_ingest_missing_file_names_path(tmp_path, capsys):
    code, out, err = ingest(capsys, tmp_path / "ws", "/nonexistent/file.csv")
    assert code == 1
    assert "/nonexistent/file.csv" in err


def test_ingest_missing_header_names_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("ID,Platform,Repository URL\n1,NPM,x\n", encoding="utf-8")
    code, _, err = ingest(capsys, tmp_path / "ws", str(bad))
    assert code == 1
    assert "Name" in err


def test_ingest_malformed_json_document_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "CVE-2020-1", "summary": ', encoding="utf-8")
    code, _, err = ingest(capsys, tmp_path / "ws", PACKAGES, str(bad))
    assert code == 1
    assert "JSON" in err or "entry" in err


def test_failed_ingest_leaves_the_store_unchanged(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    before = workspace_bytes(ws)
    entries = Path(CVES).read_text(encoding="utf-8").split("\n")
    truncated = tmp_path / "truncated.json"
    truncated.write_text("[" + ",".join(e for e in entries if e.strip()), encoding="utf-8")
    # The packages and versions load before the CVE array turns out to be cut off.
    code, _, err = ingest(capsys, ws, str(FIXTURES / "packages_oracle.csv"), str(truncated))
    assert code == 1
    assert "truncated JSON array" in err
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted(before)


def _cpus(monkeypatch, cpus: int | set) -> list:
    """Let ingest see ``cpus`` CPUs, or that set of CPUs; return the list each os.fork call
    appends to."""
    forks, fork = [], os.fork
    allowed = set(range(cpus)) if isinstance(cpus, int) else cpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed)
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def _with_rejects(tmp_path) -> tuple[str, ...]:
    """Ingest arguments whose packages, versions and CVEs each hold rejects."""
    versions = tmp_path / "versions.csv"
    versions.write_text(VERSIONS_CSV + "NPM,lodash,P001,5.0.0,someday\n", encoding="utf-8")
    cves = tmp_path / "cves.ndjson"
    cves.write_text(Path(CVES).read_text(encoding="utf-8") + '{"id": "CVE-x"}\n',
                    encoding="utf-8")
    return PACKAGES, str(cves), "--versions", str(versions)


def test_parallel_ingest_writes_what_one_cpu_writes(tmp_path, capsys, monkeypatch):
    args = _with_rejects(tmp_path)
    written = {}
    for cpus in (2, 1):
        forks = _cpus(monkeypatch, cpus)
        ws = tmp_path / f"ws_{cpus}"
        code, out, err = ingest(capsys, ws, *args)
        assert code == 0, err
        assert len(forks) == (3 if cpus > 1 else 0)  # one CPU: read here, os.fork never called
        written[cpus] = (out.replace(str(ws), "WS"), workspace_bytes(ws))
    assert written[2] == written[1]
    summary, files = json.loads(written[2][0]), written[2][1]
    assert summary["rejects"] == {"total": 5, "packages": 3, "versions": 1, "cves": 1}
    assert sorted(files) == [".lock", "cves.ndjson", "packages.ndjson", "rejects.ndjson",
                             "summary.json", "versions.ndjson"]
    # The rejects of each input, in input order: packages, versions, CVEs.
    sources = [json.loads(line)["source"] for line in files["rejects.ndjson"].splitlines()]
    assert sources == ["packages"] * 3 + ["versions", "cves"]


PACKAGES_HEADER = "ID,Platform,Name,Homepage URL,Repository URL,Keywords,Licenses\r\n"


def _package_rows(count: int, broken: bool = False) -> str:
    """``count`` package rows of every kind: good, ``field_count`` and ``empty_name``
    rejects, and keywords that hold newlines. With ``broken``, a row follows
    that opens a quote never closed, so that its field runs past the csv
    module's field size limit.
    """
    rows = []
    for i in range(1, count + 1):
        name, keywords = f"n{i}", "web"
        if i % 5 == 4:  # a quoted field over three lines
            keywords = '"a,\nb\r\n,c"'
        if i % 5 == 3:
            name = ""  # empty_name
        row = f"P{i},NPM,{name},https://example.org/{i},https://github.com/o/r{i},{keywords},MIT"
        if i % 5 == 2:
            row = f"P{i},NPM,n{i}"  # field_count
        rows.append(row + "\r\n")
    if broken:
        rows.append(f'P{count + 1},NPM,"n,x,y,z,MIT\r\n')
        rows.extend(f"P{i},NPM,n{i},{'x' * 90},,,MIT\r\n" for i in range(1500))
    return "".join(rows)


# Each case: the packages CSV, and the versions CSV. Each is split into three
# parts of four data rows, the last to the end.
SPLIT_CASES = {
    # Quoted newlines in rows 4 and 9, the last row of part 0 and the first
    # of part 2, and rejects in every part. A byte order mark starts the packages.
    "quoted-newlines-and-rejects": (
        "\ufeff" + PACKAGES_HEADER + _package_rows(13),
        VERSIONS_CSV + "NPM,lodash,P001,5.0.0,someday\n" + VERSIONS_CSV.split("\n", 1)[1],
    ),
    # A quote never closed in row 6, in part 1: an error that parts 1 and 2 both meet.
    "broken-quoting-after-k": (PACKAGES_HEADER + _package_rows(5, broken=True), VERSIONS_CSV),
    # No data rows at all, and fewer than one part's four.
    "header-only-and-short": (PACKAGES_HEADER, VERSIONS_CSV),
}


def _force_split(monkeypatch, parts: int, k: int, min_cpus: int = 2) -> None:
    """On ``min_cpus`` or more CPUs, split each CSV input into ``parts`` ranges of ``k`` data
    rows, the last to the end, whatever the inputs' sizes."""
    real = units._units

    def split(inputs, cpus):
        if cpus < min_cpus:
            return real(inputs, cpus)
        count = {flag: parts if flag != "cves" else 1 for flag in inputs}
        return {(flag, i): (path, (k * i, k * (i + 1) if i < count[flag] - 1 else None))
                for flag, path in inputs.items() for i in range(count[flag])}

    monkeypatch.setattr(units, "_units", split)


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_csv_inputs_write_what_one_cpu_writes(tmp_path, capsys, monkeypatch, case):
    packages, versions = tmp_path / "packages.csv", tmp_path / "versions.csv"
    packages.write_text(SPLIT_CASES[case][0], encoding="utf-8", newline="")
    versions.write_text(SPLIT_CASES[case][1], encoding="utf-8", newline="")
    args = (str(packages), CVES, "--versions", str(versions))
    _force_split(monkeypatch, 3, 4)
    written = {}
    for cpus in (3, 1):
        forks = _cpus(monkeypatch, cpus)
        ws = tmp_path / f"ws_{cpus}"
        code, out, err = ingest(capsys, ws, *args)
        assert len(forks) == (7 if cpus > 1 else 0)  # three parts of each CSV, one of the CVEs
        _no_child_left()
        written[cpus] = (code, out.replace(str(ws), "WS"), err, workspace_bytes(ws))
    assert written[3] == written[1]
    code, out, err, files = written[1]
    if case == "broken-quoting-after-k":
        assert (code, out) == (1, "")
        assert err == ("vulnmap: error: broken CSV structure near data row 6: "
                       "field larger than field limit (131072)\n")
        return
    assert code == 0, err
    rejects = [json.loads(line) for line in files["rejects.ndjson"].splitlines()]
    if case == "quoted-newlines-and-rejects":
        assert [(r["source"], r["row"], r["reason"]) for r in rejects] == [
            ("packages", 2, "field_count"), ("packages", 3, "empty_name"),
            ("packages", 7, "field_count"), ("packages", 8, "empty_name"),
            ("packages", 12, "field_count"), ("packages", 13, "empty_name"),
            ("versions", 4, "bad_date")]
        keys = [row[0] for row in map(json.loads, files["packages.ndjson"].splitlines())]
        assert keys == ["P1", "P4", "P5", "P6", "P9", "P10", "P11"]
        assert json.loads(out)["versions"] == 6
    else:
        assert json.loads(out)["packages"] == 0 and rejects == []


def test_versions_table_counts_what_load_versions_yields(tmp_path, capsys, monkeypatch):
    """versions.ndjson is the oracle's count per (platform, year), on one CPU and in parts."""
    rng = random.Random(2020)
    rows = [VERSIONS_CSV]
    for i in range(300):
        platform = rng.choice(("NPM", "Pypi", "Rubygems", "rubygems", " Maven "))
        published = rng.choice((f"{rng.randrange(2005, 2021)}-0{rng.randrange(1, 10)}-15 UTC",
                                "someday", ""))  # a bad_date reject in about one row in three
        number = f'"1.{i}\n-beta"' if i % 50 == 0 else f"1.{i}"  # a quoted newline now and then
        rows.append(f"{platform},p{i % 40},P{i % 40},{number},{published}\n")
    versions = tmp_path / "versions.csv"
    versions.write_text("".join(rows), encoding="utf-8")
    with vulnmap.ingest.open_text_auto(versions) as fh:
        bad = []
        oracle = Counter(vulnmap.ingest.load_versions(
            fh, rejects=bad.append, platform_aliases={"Rubygems": "Ruby"}))
    assert bad and {r["reason"] for r in bad} == {"bad_date"}
    _force_split(monkeypatch, 3, 100)
    reports = []
    for cpus in (1, 3):
        forks = _cpus(monkeypatch, cpus)
        ws = tmp_path / f"ws_{cpus}"
        code, out, err = ingest(capsys, ws, PACKAGES, CVES, "--versions", str(versions))
        assert code == 0, err
        assert len(forks) == (7 if cpus > 1 else 0)
        cells = [json.loads(line) for line in (ws / "versions.ndjson").read_text().splitlines()]
        assert cells == sorted(cells)  # one row per cell, in order
        assert {(platform, year): count for platform, year, count in cells} == oracle
        summary = json.loads(out)
        assert summary["versions"] == sum(oracle.values())
        assert summary["rejects"]["versions"] == len(bad)
        rejects = [json.loads(line) for line in (ws / "rejects.ndjson").read_text().splitlines()]
        assert [r for r in rejects if r["source"] == "versions"] == bad
        for fmt in REPORT_FORMATS:
            code, _, err = run(capsys, "report", "--workspace", str(ws),
                               "--report", "versions-per-year", "--format", fmt)
            assert code == 0, err
        reports.append({p.name: p.read_bytes() for p in sorted(ws.glob("report_*"))})
    assert len(reports[0]) == 2 and reports[0] == reports[1]


@pytest.mark.parametrize("tail", [0, 3000], ids=["small", "over-128-kib"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_stray_quote_stops_ingest_naming_its_row(tmp_path, capsys, monkeypatch, tail, cpus):
    """An opening quote never closed no longer swallows the rows after it into one reject."""
    ws, versions = tmp_path / "ws", tmp_path / "versions.csv"
    header, first, _, third = VERSIONS_CSV.splitlines(keepends=True)
    versions.write_text(  # data row 2 opens a quote; more than 128 KiB follows it, or not
        header + first + 'NPM,"lodash,P001,3.0.0,2015-01-10 00:00:00 UTC\n' + third + first
        + f"NPM,lodash,P001,{'9' * 40},2019-02-03 10:00:00 UTC\n" * tail, encoding="utf-8")
    assert ingest(capsys, ws)[0] == 0
    before = workspace_bytes(ws)
    _cpus(monkeypatch, cpus)
    code, out, err = ingest(capsys, ws, PACKAGES, CVES, "--versions", str(versions))
    assert (code, out) == (1, "")
    reason = "field larger than field limit (131072)" if tail else "unexpected end of data"
    assert err == f"vulnmap: error: broken CSV structure near data row 2: {reason}\n"
    assert workspace_bytes(ws) == before


def test_split_rule_gives_csv_inputs_their_share_of_the_cpus(tmp_path):
    row = "P1,NPM,lodash,https://example.org/1,https://github.com/lodash/lodash,,MIT\n"
    big = tmp_path / "big.csv"  # 10 000 data rows of 74 bytes
    big.write_text(PACKAGES_HEADER.replace("\r\n", "\n") + row * 10_000, encoding="utf-8")
    small, gz = tmp_path / "small.csv", tmp_path / "big.csv.gz"
    small.write_text(VERSIONS_CSV, encoding="utf-8")
    gz.write_bytes(gzip.compress(big.read_bytes(), mtime=0))
    cves = tmp_path / "cves.ndjson"
    cves.write_bytes(b" " * big.stat().st_size)

    def split(inputs, cpus) -> dict[str, list]:
        """Each input's row ranges, once the units are checked to come in input order."""
        ranges = {flag: [] for flag in inputs}
        for (flag, i), (path, rows) in units._units(inputs, cpus).items():
            assert path == inputs[flag] and i == len(ranges[flag])
            assert not any(ranges[later] for later in list(inputs)[list(inputs).index(flag) + 1:])
            ranges[flag].append(rows)
        return ranges

    def k(ranges) -> int:
        """The rows per part of contiguous ranges from row 0 to the end."""
        k = ranges[0][1]
        assert ranges == [(i * k, (i + 1) * k) for i in range(len(ranges) - 1)] + [
            ((len(ranges) - 1) * k, None)]
        return k

    # All of the bytes: every CPU. The estimate of K is within 1% of 10 000 / 3.
    packages = split({"packages": big}, 3)["packages"]
    assert len(packages) == 3 and abs(k(packages) - 10_000 / 3) < 34
    # Half the bytes: half the CPUs. Too small a share, the CVE dump, and gzip
    # with all of the bytes: one part.
    ranges = split({"packages": big, "versions": small, "cves": cves}, 4)
    assert len(ranges["packages"]) == 2 and abs(k(ranges["packages"]) - 5000) < 50
    assert ranges["versions"] == ranges["cves"] == [(0, None)]
    assert split({"packages": small, "cves": cves}, 4)["cves"] == [(0, None)]
    assert split({"packages": gz}, 4) == {"packages": [(0, None)]}
    assert split({"packages": big, "versions": big}, 1) == {
        "packages": [(0, None)], "versions": [(0, None)]}


@pytest.mark.parametrize("cpus", [2, 1])
def test_first_failed_input_in_input_order_is_the_error(tmp_path, capsys, monkeypatch, cpus):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    before = workspace_bytes(ws)
    bad_packages = tmp_path / "packages.csv"
    bad_packages.write_text("ID,Platform,Repository URL\n1,NPM,x\n", encoding="utf-8")
    truncated = tmp_path / "truncated.json"
    truncated.write_text("[" + ",".join(Path(CVES).read_text("utf-8").split()), encoding="utf-8")
    forks = _cpus(monkeypatch, cpus)
    code, out, err = ingest(capsys, ws, str(bad_packages), str(truncated))
    assert len(forks) == (2 if cpus > 1 else 0)
    assert code == 1 and out == ""
    assert err == "vulnmap: error: missing mapped header 'Name'\n"
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted(before)
    assert not (ws / ".staging").exists()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_killed_input_process_exits_1_naming_its_input(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    before = workspace_bytes(ws)
    forks = _cpus(monkeypatch, 2)

    def killed(*args, **kwargs):  # the OOM killer's way out
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(vulnmap.ingest, "load_cves", killed)
    code, out, err = ingest(capsys, ws, *_with_rejects(tmp_path))
    assert len(forks) == 3
    assert code == 1 and out == ""
    assert err == ("vulnmap: error: the process reading --cves input ended without an "
                   f"answer (killed by signal {int(signal.SIGKILL)})\n")
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted(before)
    _no_child_left()


def test_killed_part_process_exits_1_naming_its_input(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    before = workspace_bytes(ws)
    forks = _cpus(monkeypatch, 2)
    _force_split(monkeypatch, 2, 50)
    load_packages = vulnmap.ingest.load_packages

    def killed_after_row_50(*args, row_range, **kwargs):
        if row_range[0]:
            os.kill(os.getpid(), signal.SIGKILL)
        return load_packages(*args, row_range=row_range, **kwargs)

    monkeypatch.setattr(vulnmap.ingest, "load_packages", killed_after_row_50)
    code, out, err = ingest(capsys, ws, *_with_rejects(tmp_path))
    assert len(forks) == 5  # two parts of each CSV input, one of the CVEs
    assert code == 1 and out == ""
    assert err == ("vulnmap: error: the process reading --packages input ended without an "
                   f"answer (killed by signal {int(signal.SIGKILL)})\n")
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted(before)
    _no_child_left()


def test_input_processes_start_on_the_cpus_in_turn_then_run_on_all(tmp_path, capsys,
                                                                   monkeypatch):
    """Unit i is placed on CPU i mod the allowed set's size, then let run on all of it."""
    calls, set_affinity, fork, children = tmp_path / "calls", os.sched_setaffinity, os.fork, []

    def record(pid, mask):
        """Called in the children, so each call is kept in a file."""
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), pid, sorted(mask)]) + "\n")
        set_affinity(pid, mask)  # fails on a CPU the machine lacks: the child goes on

    def fork_in_order():
        children.append(fork())  # the parent's list holds the children's pids, in order
        return children[-1]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 2, 5})
    monkeypatch.setattr(os, "sched_setaffinity", record)
    monkeypatch.setattr(os, "fork", fork_in_order)
    _force_split(monkeypatch, 3, 200)  # three parts of the packages, then the CVEs
    packages = tmp_path / "packages.csv"
    packages.write_text(PACKAGES_HEADER + _package_rows(600), encoding="utf-8", newline="")
    code, _, err = ingest(capsys, tmp_path / "ws", str(packages))
    assert code == 0, err
    masks = {}
    for pid, target, mask in map(json.loads, calls.read_text(encoding="utf-8").splitlines()):
        assert target == 0 and pid != os.getpid()  # the parent stays where it is
        masks.setdefault(pid, []).append(mask)
    assert [masks[pid] for pid in children] == [[[cpu], [2, 5, 7]] for cpu in (2, 5, 7, 2)]


def test_cpus_the_machine_lacks_write_what_one_cpu_writes(tmp_path, capsys, monkeypatch):
    """Placing a process on a CPU that is not there fails, and the process runs where it is."""
    packages = tmp_path / "packages.csv"
    packages.write_text(PACKAGES_HEADER + _package_rows(600), encoding="utf-8", newline="")
    args = (str(packages), *_with_rejects(tmp_path)[1:])
    written = {}
    for cpus in ({0, 1 << 12, (1 << 12) + 1}, {0}):
        forks = _cpus(monkeypatch, cpus)
        ws = tmp_path / f"ws_{len(cpus)}"
        code, out, err = ingest(capsys, ws, *args)
        assert code == 0, err
        # Two parts of the packages, the versions and the CVEs: placed on CPUs 0, 4096, 4097, 0.
        assert len(forks) == (4 if len(cpus) > 1 else 0)
        written[len(cpus)] = (out.replace(str(ws), "WS"), err, workspace_bytes(ws))
    assert written[3] == written[1]


def test_interrupted_ingest_reaps_every_child(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    before = workspace_bytes(ws)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(vulnmap.ingest, "load_versions", lambda *a, **k: time.sleep(60))

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # A Ctrl-C in the parent while it waits; a fork does not inherit the timer.
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            ingest(capsys, ws, *_with_rejects(tmp_path))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    _no_child_left()
    assert workspace_bytes(ws) == before
    assert not (ws / ".staging").exists()


def test_killed_ingest_stops_its_input_processes(tmp_path, capsys):
    """Forked input processes whose ingest was killed exit at once, and give up its lock."""
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    before = workspace_bytes(ws)
    versions = tmp_path / "versions.csv"
    with open(versions, "w", encoding="utf-8") as fh:
        fh.write(VERSIONS_CSV)
        fh.writelines(f"NPM,lodash,P001,1.0.{i},2019-02-03 10:00:00 UTC\n" for i in range(600))
    # Two CPUs whatever this machine has, so that ingest forks, and a versions
    # unit slowed to 50 ms a row: left to itself it would hold the lock for 30 s.
    script = ("import os, sys, time; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from vulnmap import ingest; load = ingest.load_versions; ingest.load_versions = "
              "lambda *a, **k: (r for r in load(*a, **k) if not time.sleep(0.05)); "
              "from vulnmap.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(vulnmap.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "ingest", "--workspace", str(ws),
         "--packages", PACKAGES, "--cves", CVES, "--versions", str(versions)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        # The versions unit opens its rejects part file first: its process has begun.
        staged, deadline = ws / ".staging" / "rejects_versions_0.ndjson", time.monotonic() + 60
        while not staged.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.kill()
        proc.wait()
        # Every process that inherited stderr, the lock's holders among them, has exited.
        assert proc.communicate(timeout=5)[1] == ""
    finally:
        proc.kill()
    with Workspace(ws).lock():
        pass
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted([*before, ".staging"])
    assert ingest(capsys, ws)[0] == 0
    assert not (ws / ".staging").exists()


def _fuzz_seeds() -> dict[str, tuple[str, bytes]]:
    """The ingest inputs to mutate, by name: the flag, then the well-formed bytes."""
    packages, cves = Path(PACKAGES).read_bytes(), Path(CVES).read_bytes()
    array = ("[" + ",\n".join(cves.decode("utf-8").splitlines()) + "]").encode("utf-8")
    return {
        "packages-csv": ("--packages", packages),
        "versions-csv": ("--versions", VERSIONS_CSV.encode("utf-8")),
        "cves-ndjson": ("--cves", cves),
        "cves-array": ("--cves", array),
        "packages-gzip": ("--packages", gzip.compress(packages, mtime=0)),
        "cves-gzip": ("--cves", gzip.compress(array, mtime=0)),
    }


# Bytes that are structure in one of the formats, or not UTF-8.
_FUZZ_BYTES = b'",\n\r[]{}:\\ \x00\x1f\x80\xff0aT'


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """The data cut short, or with one byte replaced, inserted or deleted, or a span repeated."""
    at = rng.randrange(len(data))
    byte = bytes([rng.choice(_FUZZ_BYTES + bytes([rng.randrange(256)]))])
    return rng.choice((
        lambda: data[:at],
        lambda: data[:at] + byte + data[at + 1:],
        lambda: data[:at] + byte + data[at:],
        lambda: data[:at] + data[at + 1:],
        lambda: data[:at] + data[at:at + rng.randrange(1, 200)] + data[at:],
    ))()


def _data_rows(flag: str, data: bytes) -> int:
    """The input's data rows, CSV rows after the header or top-level JSON values.

    Read without ingest's code: the whole text at once, by the stdlib; raises
    if the input does not decode.
    """
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    text = data.decode("utf-8-sig")
    if flag != "--cves":
        return len(list(csv.reader(io.StringIO(text, newline="")))) - 1
    if text.lstrip().startswith("["):
        return len(json.loads(text))
    decode, pos, count = json.JSONDecoder().raw_decode, 0, 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return count
        pos = decode(text, pos)[1]
        count += 1


def test_fuzzed_inputs_exit_0_or_1_on_both_ingest_paths(tmp_path, capfd, monkeypatch):
    # Truncations and byte mutations of each input format, after Miller,
    # Fredriksen and So (CACM 1990). Each mutant is ingested on the one-CPU
    # and on the forked path, with 2 CPUs and with 4, where the packages CSV,
    # about 43% of the input bytes, is split in two; all must agree.
    seeds = _fuzz_seeds()
    versions = tmp_path / "versions.csv"
    versions.write_bytes(seeds["versions-csv"][1])
    base = {"--packages": PACKAGES, "--cves": CVES, "--versions": str(versions)}
    workspaces = {cpus: tmp_path / f"ws_{cpus}" for cpus in (1, 2, 4)}
    for ws in workspaces.values():
        assert ingest(capfd, ws, PACKAGES, CVES, "--versions", str(versions))[0] == 0
    rng = random.Random(1990)
    exits = Counter()
    for i in range(36):
        name = rng.choice(sorted(seeds))
        flag, data = seeds[name]
        data = _mutate(rng, data)
        mutant = tmp_path / f"mutant{i}"
        mutant.write_bytes(data)
        argv = [arg for key, path in {**base, flag: str(mutant)}.items() for arg in (key, path)]
        outcomes = {}
        for cpus, ws in workspaces.items():
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            before = workspace_bytes(ws)
            code, out, err = run(capfd, "ingest", "--workspace", str(ws), *argv)
            case = f"{name} mutant {i}, {cpus} CPU(s): {err}"
            assert code in (0, 1), case
            assert "Traceback" not in err, case
            _no_child_left()
            if code == 1:
                assert out == "" and err.startswith("vulnmap: error: "), case
                assert workspace_bytes(ws) == before, case
            else:
                summary = json.loads(out)
                key = flag[2:]
                assert summary[key] + summary["rejects"].get(key, 0) == _data_rows(flag, data), case
                rejects = (ws / "rejects.ndjson").read_text(encoding="utf-8").splitlines()
                assert sum(json.loads(r)["source"] == key for r in rejects) == \
                    summary["rejects"].get(key, 0), case
            outcomes[cpus] = (code, err, workspace_bytes(ws) if code == 0 else None)
        assert outcomes[1] == outcomes[2] == outcomes[4], f"{name} mutant {i}"
        exits[code] += 1
    assert exits[0] >= 5 and exits[1] >= 5, exits  # both outcomes exercised


def test_reingest_drops_the_previous_mappings(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    assert run(capsys, "report", "--workspace", str(ws))[0] == 0
    assert run(capsys, "report", "--workspace", str(ws), "--format", "json")[0] == 0
    assert len(list(ws.glob("report_*"))) == 2 * len(ALL_REPORTS)
    code, _, _ = ingest(
        capsys, ws, str(FIXTURES / "packages_oracle.csv"), str(FIXTURES / "cves_oracle.ndjson")
    )
    assert code == 0
    assert not list(ws.glob("mappings_*.ndjson"))
    assert not (ws / "mappings.json").exists()
    assert not list(ws.glob("report_*"))
    code, _, err = run(capsys, "report", "--workspace", str(ws), "--report", "vulnerable-packages")
    assert code == 1
    assert "vulnmap map" in err


def test_mappings_of_another_store_are_refused(tmp_path, capsys):
    """Mapping files of an earlier store, as a kill between ingest's move of a new store into
    place and its removal of the old mappings leaves them, are refused until map runs again."""
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    saved = {p.name: p.read_bytes() for p in ws.glob("mappings*")}
    code, _, _ = ingest(
        capsys, ws, str(FIXTURES / "packages_oracle.csv"), str(FIXTURES / "cves_oracle.ndjson")
    )
    assert code == 0
    for name, data in saved.items():
        (ws / name).write_bytes(data)
    before = workspace_bytes(ws)
    code, out, err = run(capsys, "report", "--workspace", str(ws))
    assert code == 1 and out == ""
    assert err == (
        f"vulnmap: error: corrupt store file {ws / 'mappings_strict.ndjson'}: ValueError: "
        "mappings.json records the files of another store than summary.json; "
        "run 'vulnmap map' again\n"
    )
    assert workspace_bytes(ws) == before
    # A map of one strategy keeps no entry of the other strategies' old files.
    assert run(capsys, "map", "--workspace", str(ws), "--strategy", "strict")[0] == 0
    fuzzy = ws / "mappings_fuzzy.ndjson"
    code, out, err = run(capsys, "report", "--workspace", str(ws))
    assert code == 1 and out == ""
    assert err == (
        f"vulnmap: error: corrupt store file {fuzzy}: ValueError: {fuzzy.stat().st_size} bytes, "
        f"crc32 {zlib.crc32(fuzzy.read_bytes())}; mappings.json records no file; "
        "run 'vulnmap map' again\n"
    )
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    assert run(capsys, "report", "--workspace", str(ws))[0] == 0


def _line_counts(ws: Path) -> dict[str, int]:
    return {path.stem.removeprefix("mappings_"): len(path.read_bytes().splitlines())
            for path in ws.glob("mappings_*.ndjson")}


def _manifest_of(ws: Path) -> dict:
    """The mappings.json that the mapping files and summary.json of ``ws`` call for."""
    files = {path.name: {"crc32": zlib.crc32(path.read_bytes()), "bytes": path.stat().st_size}
             for path in ws.glob("mappings_*.ndjson")}
    store_files = json.loads((ws / "summary.json").read_text(encoding="utf-8"))["files"]
    return {"rows": _line_counts(ws), "files": files, "store": store_files}


def test_mapping_manifest_counts_every_mapping_file(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    assert run(capsys, "map", "--workspace", str(ws), "--strategy", "strict")[0] == 0
    manifest = ws / "mappings.json"
    assert json.loads(manifest.read_text(encoding="utf-8")) == _manifest_of(ws)
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    # A run of one strategy writes only its own file and keeps the entries of the others.
    others = {p.name: p.read_bytes() for p in ws.glob("mappings_*.ndjson")
              if p.name != "mappings_repository_first.ndjson"}
    assert len(others) == 3
    assert run(capsys, "map", "--workspace", str(ws), "--strategy", "repository_first")[0] == 0
    assert {name: (ws / name).read_bytes() for name in others} == others
    counts = _line_counts(ws)
    assert sorted(counts) == sorted(cli.STRATEGY_KEYS)
    doc = _manifest_of(ws)
    assert json.loads(manifest.read_text(encoding="utf-8")) == doc
    assert run(capsys, "report", "--workspace", str(ws))[0] == 0
    # A mapping file with no checksum, and a manifest that is not one, are corrupt.
    no_fuzzy = {name: e for name, e in doc["files"].items() if name != "mappings_fuzzy.ndjson"}
    for bad, named in (({**doc, "files": no_fuzzy}, "mappings_fuzzy.ndjson"),
                       ({**doc, "rows": {**counts, "strict": -1}}, "mappings.json"),
                       ({**doc, "files": {"mappings_strict.ndjson": 5}}, "mappings.json"),
                       ({**doc, "store": {"cves.ndjson": {"crc32": 1}}}, "mappings.json"),
                       ({"rows": [1]}, "mappings.json"), ([], "mappings.json")):
        manifest.write_text(json.dumps(bad), encoding="utf-8")
        before = workspace_bytes(ws)
        code, out, err = run(capsys, "report", "--workspace", str(ws))
        assert code == 1 and out == "", err
        assert err.startswith(f"vulnmap: error: corrupt store file {ws / named}: "), err
        assert workspace_bytes(ws) == before
    # A deleted manifest does not turn the checksum check off.
    manifest.unlink()
    strict = ws / "mappings_strict.ndjson"
    strict.write_bytes(strict.read_bytes().splitlines(keepends=True)[0])
    before = workspace_bytes(ws)
    code, out, err = run(capsys, "report", "--workspace", str(ws), "--report", "vulnerable-packages")
    assert code == 1 and out == "", err
    assert err.startswith(f"vulnmap: error: corrupt store file {strict}: "), err
    assert err.endswith("mappings.json is missing; run 'vulnmap map' again\n"), err
    assert workspace_bytes(ws) == before


def test_store_from_another_version_must_be_ingested_again(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    # The object rows and the summary of a store written before the layout was recorded.
    (ws / "packages.ndjson").write_text(
        '{"key": "P001", "platform": "NPM", "name": "lodash", "keywords": [], '
        '"license": "MIT", "repo": null}\n', encoding="utf-8")
    summary = json.loads((ws / "summary.json").read_text(encoding="utf-8"))
    del summary["store_layout"]
    (ws / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    before = workspace_bytes(ws)
    for argv in (["map"], ["report", "--report", "platform-share"]):
        code, out, err = run(capsys, *argv, "--workspace", str(ws))
        assert code == 1
        assert err.startswith("vulnmap: error:")
        assert "run 'vulnmap ingest' again" in err
        assert "Traceback" not in err and out == ""
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted(before)


def test_a_store_beside_no_summary_is_not_read_unchecked(tmp_path, capsys):
    ws = tmp_path / "ws"
    rerun = "; run 'vulnmap ingest' first\n"
    # Commands on an empty workspace name the first store file it lacks.
    code, out, err = run(capsys, "map", "--workspace", str(ws))
    assert code == 1 and out == ""
    assert err == f"vulnmap: error: workspace {ws} has no packages.ndjson{rerun}"
    assert ingest(capsys, ws)[0] == 0
    (ws / "summary.json").unlink()
    cves = ws / "cves.ndjson"
    cves.write_bytes(_cut_at_line(cves.read_bytes()))
    before = workspace_bytes(ws)
    for command in ("map", "report"):
        code, out, err = run(capsys, command, "--workspace", str(ws))
        assert code == 1 and out == "", err
        assert err == f"vulnmap: error: workspace {ws} has no summary.json{rerun}"
        assert workspace_bytes(ws) == before
    # Read through the library, the cut file is corrupt, not a shorter store.
    with pytest.raises(store.CorruptStore) as raised:
        list(store.Workspace(ws).load_cves())
    assert str(raised.value) == (
        f"corrupt store file {cves}: FileNotFoundError: summary.json is missing; "
        "run 'vulnmap ingest' again"
    )


def test_ingest_into_a_closed_pipe_exits_1_without_traceback(tmp_path):
    ws = tmp_path / "ws"
    env = {**os.environ, "PYTHONPATH": str(Path(vulnmap.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vulnmap", "ingest", "--workspace", str(ws),
             "--packages", PACKAGES, "--cves", CVES],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert Workspace(ws).read_summary()["packages"] == 97
    assert not (ws / ".staging").exists()


def _bad_utf8(data: bytes) -> bytes:
    """The data with two bytes that are not UTF-8 inside its last line."""
    head, sep, last = data.rstrip(b"\n").rpartition(b"\n")
    return head + sep + last[:3] + b"\xff\xfe" + last[3:] + b"\n"


# Each case: the flag, then the bad input's bytes from the fixture's bytes.
UNDECODABLE_INPUTS = {
    "packages-not-utf8": ("--packages", lambda: _bad_utf8(Path(PACKAGES).read_bytes())),
    "versions-not-utf8": ("--versions", lambda: _bad_utf8(VERSIONS_CSV.encode())),
    "cves-not-utf8": ("--cves", lambda: _bad_utf8(Path(CVES).read_bytes())),
    "packages-truncated-gzip": (
        "--packages", lambda: gzip.compress(Path(PACKAGES).read_bytes())[:-40]),
}


@pytest.mark.parametrize("case", UNDECODABLE_INPUTS)
def test_undecodable_input_exits_1_and_leaves_the_store_unchanged(tmp_path, capsys, case):
    flag, make = UNDECODABLE_INPUTS[case]
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    before = workspace_bytes(ws)
    bad = tmp_path / "bad_input"
    bad.write_bytes(make())
    inputs = {"--packages": PACKAGES, "--cves": CVES, "--versions": None}
    inputs[flag] = str(bad)
    argv = [arg for key, path in inputs.items() if path for arg in (key, path)]
    env = {**os.environ, "PYTHONPATH": str(Path(vulnmap.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "vulnmap", "ingest", "--workspace", str(ws), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"vulnmap: error: cannot read {flag} input: {bad}: ")
    assert not (ws / ".staging").exists()
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted(before)


def _cut_mid_line(data: bytes) -> bytes:
    """The data cut off in the middle of its middle line."""
    start = data.rfind(b"\n", 0, len(data) // 2) + 1
    return data[: (start + data.index(b"\n", start)) // 2]


def _cut_at_line(data: bytes) -> bytes:
    """The data cut off after the last whole line of its first half."""
    return data[: data.rfind(b"\n", 0, len(data) // 2) + 1]


def _set_first_cpe_field(field: int, value):
    """A corruption that sets one field of the first CPE pair of the CVE rows."""
    def corrupt(data: bytes) -> bytes:
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        next(row for row in rows if row[4])[4][0][field] = value
        return "".join(store._dumps(row) + "\n" for row in rows).encode("utf-8")
    return corrupt


def _set_first_row_field(field: int | str, value):
    """A corruption that sets one field of the file's first row."""
    def corrupt(data: bytes) -> bytes:
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        rows[0][field] = value
        return "".join(store._dumps(row) + "\n" for row in rows).encode("utf-8")
    return corrupt


def _same_length_summary(data: bytes) -> bytes:
    """The first CVE's summary replaced by as many "x" as it has characters: rows well typed."""
    first, rest = data.split(b"\n", 1)
    row = json.loads(first)
    row[1] = "x" * len(row[1])
    return (store._dumps(row) + "\n").encode("utf-8") + rest


def _set_first_cpe(value):
    """A corruption that replaces the first CPE pair of the CVE rows."""
    def corrupt(data: bytes) -> bytes:
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        next(row for row in rows if row[4])[4][0] = value
        return "".join(store._dumps(row) + "\n" for row in rows).encode("utf-8")
    return corrupt


# Each case: the workspace file, how to corrupt its bytes, the commands that read it.
CORRUPT_STORES = {
    "packages-truncated": ("packages.ndjson", _cut_mid_line, ("map", "report")),
    "versions-truncated": ("versions.ndjson", _cut_mid_line, ("report",)),
    "cves-truncated": ("cves.ndjson", _cut_mid_line, ("map", "report")),
    "mappings-truncated": ("mappings_strict.ndjson", _cut_mid_line, ("report",)),
    "packages-cut-at-line": ("packages.ndjson", _cut_at_line, ("map", "report")),
    "versions-cut-at-line": ("versions.ndjson", _cut_at_line, ("report",)),
    "cves-cut-at-line": ("cves.ndjson", _cut_at_line, ("map", "report")),
    "mappings-cut-at-line": ("mappings_strict.ndjson", _cut_at_line, ("report",)),
    "cpe-product-int": ("cves.ndjson", _set_first_cpe_field(0, 5), ("map", "report")),
    "cpe-product-list": ("cves.ndjson", _set_first_cpe_field(0, ["x"]), ("map", "report")),
    "cpe-target-int": ("cves.ndjson", _set_first_cpe_field(1, 5), ("map", "report")),
    "cpe-row-short": ("cves.ndjson", _set_first_cpe(["lodash"]), ("map", "report")),
    "cpe-pair-three-fields": (
        "cves.ndjson", _set_first_cpe(["lodash", "node.js", "x"]), ("map", "report")
    ),
    "cpe-pair-string": ("cves.ndjson", _set_first_cpe("ab"), ("map", "report")),
    "cpe-pairs-object": ("cves.ndjson", _set_first_row_field(4, {}), ("map", "report")),
    "cve-published-empty": ("cves.ndjson", _set_first_row_field(3, ""), ("map", "report")),
    "cve-id-bad": ("cves.ndjson", _set_first_row_field(0, "CVE-x"), ("map", "report")),
    "cve-summary-null": ("cves.ndjson", _set_first_row_field(1, None), ("map", "report")),
    "cve-reference-int": ("cves.ndjson", _set_first_row_field(2, [1]), ("map", "report")),
    "cve-references-string": (
        "cves.ndjson", _set_first_row_field(2, "https://x"), ("map", "report")
    ),
    "package-repo-link-list": (
        "packages.ndjson", _set_first_row_field(5, ["github.com/lodash/lodash"]), ("map", "report")
    ),
    "package-repo-link-int": ("packages.ndjson", _set_first_row_field(5, 5), ("map", "report")),
    "package-key-list": ("packages.ndjson", _set_first_row_field(0, []), ("map",)),
    "package-platform-null": ("packages.ndjson", _set_first_row_field(1, None), ("report",)),
    "package-name-null": ("packages.ndjson", _set_first_row_field(2, None), ("map",)),
    "package-keyword-int": ("packages.ndjson", _set_first_row_field(3, [1]), ("map",)),
    "package-keywords-string": (
        "packages.ndjson", _set_first_row_field(3, "web"), ("map", "report")
    ),
    # A versions.ndjson row is [platform, year, count].
    "versions-platform-null": ("versions.ndjson", _set_first_row_field(0, None), ("report",)),
    "versions-platform-list": ("versions.ndjson", _set_first_row_field(0, ["NPM"]), ("report",)),
    "versions-year-string": ("versions.ndjson", _set_first_row_field(1, "2015"), ("report",)),
    "versions-year-float": ("versions.ndjson", _set_first_row_field(1, 2015.0), ("report",)),
    "versions-count-bool": ("versions.ndjson", _set_first_row_field(2, True), ("report",)),
    "versions-count-zero": ("versions.ndjson", _set_first_row_field(2, 0), ("report",)),
    "versions-count-negative": ("versions.ndjson", _set_first_row_field(2, -1), ("report",)),
    "versions-counts-over-summary": ("versions.ndjson", _set_first_row_field(2, 2), ("report",)),
    # Edits that leave every row well typed and every count in place.
    "versions-year-edited": ("versions.ndjson", _set_first_row_field(1, 2016), ("report",)),
    "cve-summary-same-length": ("cves.ndjson", _same_length_summary, ("map", "report")),
    "mapping-cve-list": ("mappings_strict.ndjson", _set_first_row_field("cve", ["x"]), ("report",)),
    "mapping-package-list": (
        "mappings_fuzzy.ndjson", _set_first_row_field("package", ["x"]), ("report",)
    ),
    "mapping-platform-null": (
        "mappings_repository_all.ndjson", _set_first_row_field("platform", None), ("report",)
    ),
    "mapping-confidence-string": (
        "mappings_strict.ndjson", _set_first_row_field("confidence", "high"), ("report",)
    ),
    "mapping-kind-int": (
        "mappings_fuzzy.ndjson", _set_first_row_field("evidence", {"kind": 5, "payload": []}),
        ("report",)
    ),
    "mapping-payload-string": (
        "mappings_strict.ndjson",
        _set_first_row_field("evidence", {"kind": "summary_keyword", "payload": "abc"}),
        ("report",)
    ),
    "mapping-payload-int": (
        "mappings_repository_first.ndjson",
        _set_first_row_field("evidence", {"kind": "repo_link", "payload": [1]}), ("report",)
    ),
    "mapping-strategy-other": (
        "mappings_strict.ndjson", _set_first_row_field("strategy", "repository"), ("report",)
    ),
}


@pytest.mark.parametrize("case", CORRUPT_STORES)
def test_corrupt_store_file_exits_1_and_writes_nothing(tmp_path, capsys, case):
    name, corrupt, commands = CORRUPT_STORES[case]
    ws = tmp_path / "ws"
    versions = tmp_path / "versions.csv"
    versions.write_text(VERSIONS_CSV, encoding="utf-8")
    assert ingest(capsys, ws, PACKAGES, CVES, "--versions", str(versions))[0] == 0
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    assert run(capsys, "report", "--workspace", str(ws))[0] == 0
    path = ws / name
    path.write_bytes(corrupt(path.read_bytes()))
    data = path.read_bytes()
    mapping = name.startswith("mappings_")
    index, rerun = ("mappings.json", "map") if mapping else ("summary.json", "ingest")
    before = workspace_bytes(ws)
    recorded = json.loads(before[index])["files"][name]
    for command in commands:
        code, out, err = run(capsys, command, "--workspace", str(ws))
        assert code == 1 and out == ""
        # Every edit, well typed or not, changes the bytes that the size and crc32 describe.
        assert err == (
            f"vulnmap: error: corrupt store file {path}: ValueError: {len(data)} bytes, crc32 "
            f"{zlib.crc32(data)}; {index} records {recorded['bytes']} bytes, crc32 "
            f"{recorded['crc32']}; run 'vulnmap {rerun}' again\n"
        )
        assert workspace_bytes(ws) == before
        assert sorted(p.name for p in ws.iterdir()) == sorted(before)


def test_corrupt_summary_exits_1(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    summary = ws / "summary.json"
    cut = _cut_mid_line(summary.read_bytes())
    # Cut off, then valid JSON documents that are not an object.
    for bad in (cut, b"[1]\n", b"null\n", b"5\n", b'"x"\n'):
        summary.write_bytes(bad)
        before = workspace_bytes(ws)
        for command in ("map", "report"):
            code, out, err = run(capsys, command, "--workspace", str(ws))
            assert code == 1 and out == "", (bad, command)
            assert err.startswith(f"vulnmap: error: corrupt store file {summary}: ")
            assert "Traceback" not in err
            if bad != cut:
                assert "not an object" in err
            assert workspace_bytes(ws) == before


# Each case: the summary.json keys to set (to ...: delete the key), whether
# cves.ndjson is cut at a line boundary too, and the file the error names.
BAD_SUMMARIES = {
    "cves-null-cut": ({"cves": None}, True, "summary.json"),
    "cves-count-missing-cut": ({"cves": ...}, True, "cves.ndjson"),
    "inputs-int": ({"inputs": 5}, False, "summary.json"),
    "malformed-cpes-list": ({"malformed_cpes": ["x"]}, False, "summary.json"),
    "versions-count-bool": ({"versions": True}, False, "summary.json"),
    "packages-count-negative": ({"packages": -1}, False, "summary.json"),
    "store-layout-float": (  # 5.0 == STORE_LAYOUT
        {"store_layout": float(store.STORE_LAYOUT)}, False, "summary.json"
    ),
    "files-entry-string": ({"files": {"cves.ndjson": "x"}}, False, "summary.json"),
}


@pytest.mark.parametrize("case", BAD_SUMMARIES)
def test_summary_with_a_bad_count_exits_1(tmp_path, capsys, case):
    changes, cut, named = BAD_SUMMARIES[case]
    ws = tmp_path / "ws"
    assert ingest(capsys, ws)[0] == 0
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    summary = json.loads((ws / "summary.json").read_text(encoding="utf-8"))
    for key, value in changes.items():
        if value is ...:
            del summary[key]
        else:
            summary[key] = value
    (ws / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    if cut:
        (ws / "cves.ndjson").write_bytes(_cut_at_line((ws / "cves.ndjson").read_bytes()))
    before = workspace_bytes(ws)
    for command in ("map", "report"):
        code, out, err = run(capsys, command, "--workspace", str(ws))
        assert code == 1 and out == "", (command, err)
        assert err.startswith(f"vulnmap: error: corrupt store file {ws / named}: "), err
        assert "Traceback" not in err
        assert workspace_bytes(ws) == before
    if named == "summary.json":
        assert any(f"not {what}" in err for what in (
            "a count", "an object", "an integer", "a crc32 and a size"))


# Values of each JSON type, set in place of one field at a time; after Miller,
# Fredriksen and So, "An Empirical Study of the Reliability of UNIX Utilities"
# (CACM 1990).
MUTATION_VALUES = (None, 5, 1.5, True, "", [], {}, "x", ["x"], [1])
MUTATED_FILES = (
    "packages.ndjson", "versions.ndjson", "cves.ndjson",
    *(f"mappings_{key}.ndjson" for key in cli.STRATEGY_KEYS), "summary.json",
)


def _first_row_and_rest(path: Path):
    """The first row of an NDJSON file and the text after it; a JSON file's document and ""."""
    text = path.read_text(encoding="utf-8")
    head, _, tail = (text, "", "") if path.suffix == ".json" else text.partition("\n")
    return json.loads(head), tail


def test_seeded_type_mutations_exit_0_or_1_and_an_exit_1_writes_nothing(tmp_path, capsys):
    base = tmp_path / "base"
    versions = tmp_path / "versions.csv"
    versions.write_text(VERSIONS_CSV, encoding="utf-8")
    assert ingest(capsys, base, PACKAGES, CVES, "--versions", str(versions))[0] == 0
    assert run(capsys, "map", "--workspace", str(base))[0] == 0
    fields = {}  # None stands for the whole row; a store row is a list, its fields indexes
    for name in MUTATED_FILES:
        row = _first_row_and_rest(base / name)[0]
        fields[name] = [None, *(range(len(row)) if type(row) is list else row)]
    rng = random.Random(1990)
    exits = Counter()
    for i in range(60):
        name = rng.choice(MUTATED_FILES)
        field, value = rng.choice(fields[name]), rng.choice(MUTATION_VALUES)
        case = f"{name}: field {field!r} set to {value!r}"
        ws = tmp_path / f"mutant{i}"
        shutil.copytree(base, ws)
        row, tail = _first_row_and_rest(ws / name)
        if field is None:
            row = value
        else:
            row[field] = value
        (ws / name).write_text(json.dumps(row) + "\n" + tail, encoding="utf-8")
        for command in ("report", "map"):  # map last: it rewrites the mapping files
            before = workspace_bytes(ws)
            try:
                code, out, err = run(capsys, command, "--workspace", str(ws))
            except Exception:
                pytest.fail(f"{command} on {case} raised:\n{traceback.format_exc()}")
            assert code in (0, 1) and "Traceback" not in err, (case, command, err)
            if code == 1:
                assert workspace_bytes(ws) == before, (case, command)
            exits[code] += 1
        shutil.rmtree(ws)
    assert exits[0] and exits[1], exits  # the draw holds rows that read and rows that do not


def test_a_flipped_byte_in_a_store_or_mapping_file_is_refused(tmp_path, capsys):
    """Each seeded byte flip, in any file the checksums cover, stops the commands that read it."""
    ws = tmp_path / "ws"
    versions = tmp_path / "versions.csv"
    versions.write_text(VERSIONS_CSV, encoding="utf-8")
    assert ingest(capsys, ws, PACKAGES, CVES, "--versions", str(versions))[0] == 0
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    rng = random.Random(2008)
    for name in MUTATED_FILES[:-1]:  # summary.json holds the checksums, not data rows
        path = ws / name
        data = path.read_bytes()
        commands = ("map", "report") if name in ("packages.ndjson", "cves.ndjson") else ("report",)
        for offset in sorted(rng.sample(range(len(data)), 4)):
            flipped = bytearray(data)
            flipped[offset] ^= rng.randrange(1, 256)
            path.write_bytes(flipped)
            before = workspace_bytes(ws)
            for command in commands:
                code, out, err = run(capsys, command, "--workspace", str(ws))
                case = (name, offset, command, err)
                assert code == 1 and out == "" and "Traceback" not in err, case
                assert err.startswith(f"vulnmap: error: corrupt store file {path}: "), case
                assert workspace_bytes(ws) == before, case
        path.write_bytes(data)
    assert run(capsys, "report", "--workspace", str(ws))[0] == 0


def test_ingest_memory_does_not_grow_with_rejects(tmp_path, capsys, monkeypatch):
    # 4000 good rows put both inputs past the 64 KiB block sha256_file reads,
    # so the two runs differ only in their rejects (an empty platform each).
    header = "ID,Platform,Name,Homepage URL,Repository URL,Keywords,Licenses\n"
    good = "".join(f"P{i},NPM,n{i},https://example.org/{'x' * 250},https://github.com/o/r,,MIT\n"
                   for i in range(4000))
    # With two CPUs each input, or each part of a split one, is read in a
    # forked child, whose allocations tracemalloc in this process cannot see:
    # the child measures its own unit's work and leaves the peak in a file.
    # One CPU runs the same function in this process.
    stage_input = units._stage_input

    def measured(unit, *args):
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        answer = stage_input(unit, *args)
        (tmp_path / f"peak_{bad}_{unit[0]}_{unit[1]}").write_text(
            str(tracemalloc.get_traced_memory()[1] - baseline), encoding="utf-8")
        return answer

    monkeypatch.setattr(units, "_stage_input", measured)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    peaks, sizes = {}, {}
    for bad in (1000, 8000):
        packages = tmp_path / f"packages_{bad}.csv"
        packages.write_text(header + good + "".join(
            f'X{i},,n{i},https://example.org/{i},https://github.com/o/r{i},"a,b",MIT\n'
            for i in range(bad)), encoding="utf-8")
        ws = tmp_path / f"ws_{bad}"
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            code, out, _ = ingest(capsys, ws, str(packages))
            peaks[bad] = tracemalloc.get_traced_memory()[1] - baseline  # joining the rejects
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["rejects"] == {"total": bad, "packages": bad}
        # Each process's peak, added: an upper bound on what they held at once.
        unit_peaks = sorted(tmp_path.glob(f"peak_{bad}_*"))
        assert [p.name for p in unit_peaks] == [f"peak_{bad}_cves_0", f"peak_{bad}_packages_0",
                                                f"peak_{bad}_packages_1"]  # the packages are split
        peaks[bad] += sum(int(p.read_text(encoding="utf-8")) for p in unit_peaks)
        sizes[bad] = (ws / "rejects.ndjson").stat().st_size
    # Holding the rejects until the end costs several times their encoded size.
    assert peaks[8000] - peaks[1000] < (sizes[8000] - sizes[1000]) / 10, (peaks, sizes)


# Each case: CVE fields holding a lone surrogate, which json.dumps writes as an escape.
LONE_SURROGATES = {
    "summary": {"summary": "x\ud800y"},
    "reference": {"references": ["https://example.org/\udc00"]},
    "cpe": {"vulnerable_configuration": ["cpe:2.3:a:acme:lib\ud800:*:*:*:*:*:*:*:*"]},
}


@pytest.mark.parametrize("case", LONE_SURROGATES)
def test_lone_surrogate_in_a_cve_becomes_a_reject(tmp_path, capsys, case):
    cves = tmp_path / "cves.ndjson"
    bad = json.dumps({"id": "CVE-2099-0001", **LONE_SURROGATES[case]})
    paired = json.dumps({"id": "CVE-2099-0002", "summary": "ok \U0001F600"})
    assert "\\ud800" in bad or "\\udc00" in bad
    assert "\\ud83d\\ude00" in paired
    cves.write_text(Path(CVES).read_text(encoding="utf-8") + bad + "\n" + paired + "\n",
                    encoding="utf-8")
    ws = tmp_path / "ws"
    code, out, err = ingest(capsys, ws, PACKAGES, str(cves))
    assert code == 0, err
    summary = json.loads(out)
    assert summary["cves"] == 51
    assert summary["rejects"] == {"total": 4, "packages": 3, "cves": 1}
    assert summary["malformed_cpes"] == 3
    rejects = [json.loads(line) for line in (ws / "rejects.ndjson").read_text("utf-8").splitlines()]
    assert rejects[-1] == {"source": "cves", "row": 51, "reason": "unencodable_text",
                           "data": "CVE-2099-0001"}
    loaded = {cve.cve_id: cve for cve in Workspace(ws).load_cves()}
    assert "CVE-2099-0001" not in loaded
    assert loaded["CVE-2099-0002"].summary == "ok \U0001F600"
    assert len(loaded) == 51


def test_ingest_accepts_gzip(tmp_path, capsys):
    gz = tmp_path / "packages.csv.gz"
    gz.write_bytes(gzip.compress(Path(PACKAGES).read_bytes()))
    code, out, _ = ingest(capsys, tmp_path / "ws", str(gz))
    assert code == 0
    assert json.loads(out)["packages"] == 97


def test_map_requires_store(tmp_path, capsys):
    code, _, err = run(capsys, "map", "--workspace", str(tmp_path / "empty"))
    assert code == 1
    assert "ingest" in err


def test_map_all_strategies_writes_four_files(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    code, out, _ = run(capsys, "map", "--workspace", str(ws))
    assert code == 0
    for name in ("strict", "fuzzy", "repository_all", "repository_first"):
        assert (ws / f"mappings_{name}.ndjson").exists()
    payload = json.loads(out)
    tallies = payload["tallies"]
    for key in ("strict", "fuzzy", "repository_all", "repository_first"):
        t = tallies[key]
        assert t["skipped"] + t["mapped"] + t["unmatched"] == t["total_cves"] == 50
    assert tallies["malformed_cpes"] == 3  # as counted by ingest
    assert payload["results"]["strict"] >= 1  # the lodash and django entries map


def test_map_single_strategy_single_mode(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    code, out, _ = run(capsys, "map", "--workspace", str(ws), "--strategy", "repository_first")
    assert code == 0
    produced = sorted(p.name for p in ws.glob("mappings_*.ndjson"))
    assert produced == ["mappings_repository_first.ndjson"]
    assert sorted(json.loads(out)["results"]) == ["repository_first"]


def test_map_repository_without_mode_runs_both(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    run(capsys, "map", "--workspace", str(ws), "--strategy", "repository")
    produced = sorted(p.name for p in ws.glob("mappings_*.ndjson"))
    assert produced == ["mappings_repository_all.ndjson", "mappings_repository_first.ndjson"]


def test_map_strategy_choices_are_the_keys_and_their_groups():
    (p_map,) = (action.choices["map"] for action in cli.build_parser()._actions
                if action.dest == "command")
    (strategy,) = (action for action in p_map._actions if action.dest == "strategy")
    assert strategy.choices == (*cli.STRATEGY_KEYS, "repository", "all")


@pytest.mark.parametrize("strategy", ["strict", "fuzzy", "all", "repository"])
def test_map_mode_without_repository_strategy_is_usage_error(tmp_path, capsys, strategy):
    # Strategies are named by their keys alone: --mode is gone, not ignored,
    # whichever strategy it is given with.
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    before = workspace_bytes(ws)
    with pytest.raises(SystemExit) as exc:
        main(["map", "--workspace", str(ws), "--strategy", strategy, "--mode", "first"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --mode first" in err
    assert workspace_bytes(ws) == before


def test_failed_map_leaves_the_mappings_unchanged(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    assert run(capsys, "map", "--workspace", str(ws))[0] == 0
    before = workspace_bytes(ws)
    strict_rows = len((ws / "mappings_strict.ndjson").read_text(encoding="utf-8").splitlines())
    to_dict = store.mapping_to_dict
    calls = []

    def failing_to_dict(result):
        calls.append(result)
        if len(calls) == strict_rows + 2:  # the strict file is whole, the fuzzy one half written
            raise RuntimeError("writer failed")
        return to_dict(result)

    monkeypatch.setattr(store, "mapping_to_dict", failing_to_dict)
    with pytest.raises(RuntimeError, match="writer failed"):
        main(["map", "--workspace", str(ws), "--cutoff", "0.9"])
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted(before)


def test_map_rerun_is_byte_identical(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    run(capsys, "map", "--workspace", str(ws))
    first = workspace_bytes(ws)
    run(capsys, "map", "--workspace", str(ws))
    assert workspace_bytes(ws) == first


def test_report_platform_share_matches_golden(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    code, out, _ = run(capsys, "report", "--workspace", str(ws),
                       "--report", "platform-share")
    assert code == 0
    produced = ws / "report_platform_share.csv"
    assert produced.read_bytes() == GOLDEN_SHARE.read_bytes()


def test_report_mapping_derived_requires_mappings(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    code, _, err = run(capsys, "report", "--workspace", str(ws),
                       "--report", "vulnerable-packages")
    assert code == 1
    assert "map" in err


def test_report_all_exports_everything(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    run(capsys, "map", "--workspace", str(ws))
    code, out, _ = run(capsys, "report", "--workspace", str(ws), "--report", "all")
    assert code == 0
    expected = {
        "report_platform_share.csv",
        "report_license_distribution.csv",
        "report_versions_per_year.csv",
        "report_cve_per_year.csv",
        "report_vulnerable_packages.csv",
        "report_mapped_cve_per_year.csv",
        "report_top_repo_links.csv",
    }
    assert expected <= {p.name for p in ws.iterdir()}


def test_report_all_without_mappings_writes_nothing(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    code, _, err = run(capsys, "report", "--workspace", str(ws), "--report", "all")
    assert code == 1
    assert "map" in err
    assert not list(ws.glob("report_*"))


def test_failed_report_leaves_the_reports_unchanged(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    run(capsys, "map", "--workspace", str(ws))
    code, out, _ = run(capsys, "report", "--workspace", str(ws))
    assert code == 0
    assert json.loads(out)["written"] == [
        str(ws / f"report_{name.replace('-', '_')}.csv") for name in ALL_REPORTS
    ]
    before = workspace_bytes(ws)
    export = vulnmap.report.export_report
    calls = []

    def failing_export(report, format, sink):
        calls.append(report)
        if len(calls) == 4:  # three reports are written, with --top-k 1 unlike the old ones
            raise RuntimeError("writer failed")
        return export(report, format, sink)

    monkeypatch.setattr(vulnmap.report, "export_report", failing_export)
    with pytest.raises(RuntimeError, match="writer failed"):
        main(["report", "--workspace", str(ws), "--top-k", "1"])
    assert workspace_bytes(ws) == before
    assert sorted(p.name for p in ws.iterdir()) == sorted(before)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_report_alone_matches_report_all(tmp_path, capsys, fmt):
    versions = tmp_path / "versions.csv"
    versions.write_text(VERSIONS_CSV, encoding="utf-8")
    ws = tmp_path / "ws"
    ingest(capsys, ws, PACKAGES, CVES, "--versions", str(versions))
    run(capsys, "map", "--workspace", str(ws))

    def reports():
        return {p.name: p.read_bytes() for p in sorted(ws.glob("report_*"))}

    code, _, _ = run(capsys, "report", "--workspace", str(ws), "--report", "all",
                     "--format", fmt)
    assert code == 0
    together = reports()
    assert len(together) == len(ALL_REPORTS)
    for path in ws.glob("report_*"):
        path.unlink()
    for name in ALL_REPORTS:
        code, _, _ = run(capsys, "report", "--workspace", str(ws), "--report", name,
                         "--format", fmt)
        assert code == 0
    assert reports() == together


def test_report_all_loads_each_snapshot_once(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    run(capsys, "map", "--workspace", str(ws))
    calls = Counter()
    for kind in ("packages", "versions", "cves"):
        original = getattr(Workspace, f"load_{kind}")

        def counted(self, _original=original, _kind=kind):
            calls[_kind] += 1
            return _original(self)
        monkeypatch.setattr(Workspace, f"load_{kind}", counted)
    code, _, _ = run(capsys, "report", "--workspace", str(ws), "--report", "all")
    assert code == 0
    # The CVE id -> year dict is built in one read of cves.ndjson for both CVE reports.
    assert calls == {"packages": 1, "versions": 1, "cves": 1}


@pytest.mark.parametrize("argv", [
    ["ingest", "--packages", PACKAGES, "--cves", CVES, "--cutoff", "0.5"],
    ["report", "--cutoff", "0.5"],
    ["report", "--lookup", "lookup.json"],
], ids=["ingest-cutoff", "report-cutoff", "report-lookup"])
def test_unread_options_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workspace", str(tmp_path / "ws")])
    assert exc.value.code == 2


def test_report_json_format(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    code, _, _ = run(capsys, "report", "--workspace", str(ws),
                     "--report", "cve-per-year", "--format", "json")
    assert code == 0
    doc = json.loads((ws / "report_cve_per_year.json").read_text(encoding="utf-8"))
    assert sum(row["count"] for row in doc["rows"]) == 50
    assert "cutoff" not in doc["metadata"]


def test_pipeline_idempotence(tmp_path, capsys):
    def full_run(ws):
        ingest(capsys, ws)
        run(capsys, "map", "--workspace", str(ws))
        run(capsys, "report", "--workspace", str(ws), "--report", "all")
        return workspace_bytes(ws)

    ws = tmp_path / "ws"
    assert full_run(ws) == full_run(ws)
    # No artifact embeds its location: a sibling workspace is byte-identical.
    assert full_run(tmp_path / "elsewhere") == workspace_bytes(ws)


def test_unknown_report_is_usage_error(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--workspace", str(ws), "--report", "bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_invalid_cutoff_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["map", "--workspace", str(tmp_path), "--cutoff", "1.5"])
    assert exc.value.code == 2


def test_missing_required_ingest_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--workspace", str(tmp_path), "--packages", PACKAGES])
    assert exc.value.code == 2


def test_missing_workspace_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("VULNMAP_WORKSPACE", raising=False)
    code, _, err = run(capsys, "ingest", "--packages", PACKAGES, "--cves", CVES)
    assert code == 2
    assert "workspace" in err.lower()


def test_workspace_env_var(tmp_path, capsys, monkeypatch):
    ws = tmp_path / "env-ws"
    monkeypatch.setenv("VULNMAP_WORKSPACE", str(ws))
    code, out, _ = run(capsys, "ingest", "--packages", PACKAGES, "--cves", CVES)
    assert code == 0
    assert json.loads(out)["workspace"] == str(ws)


def test_lock_file_blocks_second_writer(tmp_path, capsys):
    ws = tmp_path / "ws"
    with Workspace(ws).lock():
        code, _, err = ingest(capsys, ws)
    assert code == 1
    assert "locked" in err
    assert not (ws / "packages.ndjson").exists()


@pytest.mark.parametrize("argv, produced", [
    (["map"], "mappings_*"),
    (["report", "--report", "platform-share"], "report_*"),
], ids=["map", "report"])
def test_lock_blocks_map_and_report(tmp_path, capsys, argv, produced):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    with Workspace(ws).lock():
        code, _, err = run(capsys, *argv, "--workspace", str(ws))
    assert code == 1
    assert "locked" in err
    assert not list(ws.glob(produced))


def test_workspace_that_is_a_file_is_an_error(tmp_path, capsys):
    ws = tmp_path / "some_file"
    ws.write_text("", encoding="utf-8")
    code, out, err = ingest(capsys, ws)
    assert code == 1
    assert err.startswith("vulnmap: error:")
    assert str(ws) in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("flag", ["--lookup", "--cve-fields", "--versions"])
def test_ingest_unreadable_input_names_flag_and_path(tmp_path, capsys, flag):
    for bad in (tmp_path / "missing.json", tmp_path):  # absent, and a directory
        code, _, err = ingest(capsys, tmp_path / "ws", PACKAGES, CVES, flag, str(bad))
        assert code == 1
        assert flag in err
        assert str(bad) in err
        assert not (tmp_path / "ws").exists()


class _FailingFile(io.StringIO):
    """A file whose every read or write fails with ``errno``."""

    def __init__(self, code: int):
        super().__init__()
        self.error = OSError(code, os.strerror(code))

    def write(self, text):
        raise self.error

    def __next__(self):
        raise self.error


# More staged writes on a full disk: each case's command and the staged file it fails on.
FULL_DISK = {
    "rejects": ("ingest", "rejects.ndjson"),  # the join of every unit's rejects
    "append": ("ingest", "packages.ndjson"),  # a later part's rows, appended to part 0's file
    "summary": ("ingest", "summary.json"),
    "mappings": ("map", "mappings.json"),
    "report": ("report", "report_platform_share.csv"),
}


@pytest.mark.parametrize("case", ["write", "flush", "read", *FULL_DISK])
@pytest.mark.parametrize("cpus", [1, 2])
def test_write_errors_name_the_store_file_and_read_errors_the_input(
        tmp_path, capsys, monkeypatch, case, cpus):
    ws, versions = tmp_path / "ws", tmp_path / "versions.csv"
    versions.write_text(VERSIONS_CSV, encoding="utf-8")
    args = (PACKAGES, CVES, "--versions", str(versions))
    command, name = FULL_DISK.get(case, ("ingest", None))
    if name:  # every file in place, and rejects to join
        args = _with_rejects(tmp_path)
        assert ingest(capsys, ws, *args)[0] == 0
        assert run(capsys, "map", "--workspace", str(ws))[0] == 0
        assert run(capsys, "report", "--workspace", str(ws))[0] == 0
        staged = ws / ".staging" / name
    else:
        assert ingest(capsys, ws)[0] == 0
        staged = {"write": ws / ".staging" / "packages.ndjson",  # fails on its first row
                  "flush": ws / ".staging" / "versions.ndjson"}.get(case)  # the count table, flushed
    before = workspace_bytes(ws)
    if case not in ("write", "read") and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    if case == "append":  # on one CPU too: the unit loop there joins the parts all the same
        _force_split(monkeypatch, 2, 40, min_cpus=1)
    open_text_auto = vulnmap.ingest.open_text_auto

    def fail(file, mode="r", *args, **kwargs):
        if Path(file) != staged or (case == "append" and "a" not in mode):
            return open(file, mode, *args, **kwargs)
        # /dev/full takes writes into the buffer, then fails to flush it: a full disk.
        return (_FailingFile(errno.ENOSPC) if case == "write"
                else open("/dev/full", mode, *args, **kwargs))

    monkeypatch.setattr(store, "open", fail, raising=False)
    monkeypatch.setattr(vulnmap.report, "open", fail, raising=False)
    monkeypatch.setattr(vulnmap.ingest, "open_text_auto", lambda path: (
        _FailingFile(errno.EIO) if case == "read" and str(path) == PACKAGES
        else open_text_auto(path)))
    _cpus(monkeypatch, cpus)
    if command == "ingest":
        code, out, err = ingest(capsys, ws, *args)
    else:
        code, out, err = run(capsys, command, "--workspace", str(ws))
    assert (code, out) == (1, "")
    if case == "read":
        assert err == "vulnmap: error: cannot read input: [Errno 5] Input/output error\n"
    else:
        what = "report" if command == "report" else "store"
        reason = "No space left on device"
        assert err == f"vulnmap: error: cannot write {what} file {staged}: {reason}\n"
    assert workspace_bytes(ws) == before
    assert not (ws / ".staging").exists()


def test_custom_lookup_file(tmp_path, capsys):
    ws = tmp_path / "ws"
    lookup = tmp_path / "lookup.json"
    lookup.write_text(json.dumps({
        "platforms": {"NPM": {"target_sw": ["node.js"], "keywords": ["npm"], "hosts": []}},
        "platform_aliases": {},
    }), encoding="utf-8")
    code, out, _ = ingest(capsys, ws, PACKAGES, CVES, "--lookup", str(lookup))
    assert code == 0
    # Without the Rubygems alias the platform label stays as in the dump.
    platforms = {p.platform for p in Workspace(ws).load_packages()}
    assert "Rubygems" in platforms and "Ruby" not in platforms


def test_cve_field_remap_file(tmp_path, capsys):
    ws = tmp_path / "ws"
    cves = tmp_path / "custom.ndjson"
    cves.write_text(
        json.dumps({"cveId": "CVE-2019-7777", "text": "x", "urls": [],
                    "date": "2019-01-01T00:00:00", "cpe": []}) + "\n",
        encoding="utf-8",
    )
    fields = tmp_path / "fields.json"
    fields.write_text(json.dumps({
        "id": "cveId", "summary": "text", "references": "urls",
        "published": "date", "cpes": "cpe",
    }), encoding="utf-8")
    code, out, _ = ingest(capsys, ws, PACKAGES, str(cves), "--cve-fields", str(fields))
    assert code == 0
    assert json.loads(out)["cves"] == 1


@pytest.mark.parametrize(
    "document, message",
    [
        ("not json", "invalid --cve-fields file"),
        ('{"cveid": "x"}', "unknown field 'cveid'"),
        ('["id"]', "must be a JSON object"),
        ('{"id": 3}', "field 'id' must name a string key"),
    ],
    ids=["not-json", "unknown-key", "not-an-object", "non-string-value"],
)
def test_malformed_cve_fields_file_is_rejected(tmp_path, capsys, document, message):
    ws = tmp_path / "ws"
    fields = tmp_path / "fields.json"
    fields.write_text(document, encoding="utf-8")
    code, _, err = ingest(capsys, ws, PACKAGES, CVES, "--cve-fields", str(fields))
    assert code == 1
    assert err.startswith("vulnmap: error: invalid --cve-fields file")
    assert message in err
    assert not ws.exists()


def test_malformed_lookup_file_is_rejected(tmp_path, capsys):
    ws = tmp_path / "ws"
    lookup = tmp_path / "lookup.json"
    lookup.write_text(json.dumps({"platforms": {"NPM": ["npm"]}}), encoding="utf-8")
    code, _, err = ingest(capsys, ws, PACKAGES, CVES, "--lookup", str(lookup))
    assert code == 1
    assert err.startswith("vulnmap: error: invalid lookup config")
    assert '"platforms" must map each platform to an object' in err
    assert not ws.exists()


def test_map_rejects_malformed_lookup_file(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    lookup = tmp_path / "lookup.json"
    lookup.write_text(json.dumps({"platforms": {"NPM": ["npm"]}}), encoding="utf-8")
    code, _, err = run(capsys, "map", "--workspace", str(ws), "--lookup", str(lookup))
    assert code == 1
    assert err.startswith("vulnmap: error: invalid lookup config")
    assert not list(ws.glob("mappings_*"))


@pytest.mark.parametrize("section, entry", [("keywords", "npm"), ("hosts", "npmjs.com")])
def test_map_rejects_empty_lookup_token(tmp_path, capsys, section, entry):
    # An empty keyword or host would match every CVE; the default table plus
    # one "" token is refused before any mapping is written.
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    default = Path(vulnmap.__file__).parent / "data" / "default_lookup.json"
    doc = json.loads(default.read_text(encoding="utf-8"))
    tokens = doc["platforms"]["NPM"][section]
    assert entry in tokens
    tokens.append("")
    lookup = tmp_path / "lookup.json"
    lookup.write_text(json.dumps(doc), encoding="utf-8")
    before = workspace_bytes(ws)
    code, _, err = run(capsys, "map", "--workspace", str(ws), "--strategy", "fuzzy",
                       "--lookup", str(lookup))
    assert code == 1
    assert err.startswith("vulnmap: error: invalid lookup config")
    assert f"{section} entries must not be empty" in err
    assert workspace_bytes(ws) == before


def _readme_flags() -> set[tuple[str, str]]:
    """(command, flag) pairs of the README flags table; "all" names every command."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| flag | commands | meaning |"):].split("\n\n", 1)[0]
    pairs = set()
    for row in table.splitlines()[2:]:
        flags_cell, commands_cell = row.split(" | ")[:2]
        commands = ("ingest", "map", "report") if commands_cell == "all" else (
            commands_cell.split(", "))
        pairs |= {(c, f) for c in commands for f in re.findall(r"--[a-z][a-z-]*", flags_cell)}
    return pairs


def test_readme_flags_table_matches_parser(capsys):
    parser_flags = set()
    for command in ("ingest", "map", "report"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = capsys.readouterr().out
        parser_flags |= {(command, f) for f in re.findall(r"(?<![\w-])--[a-z][a-z-]*", help_text)}
    parser_flags -= {(c, "--help") for c in ("ingest", "map", "report")}
    readme_flags = _readme_flags()
    assert parser_flags - readme_flags == set(), "flags missing from the README table"
    assert readme_flags - parser_flags == set(), "README flags the parser does not have"


def test_readme_library_imports_are_exported():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^from vulnmap import \(([^)]*)\)", text, re.MULTILINE)
    assert len(blocks) == 1
    names = re.findall(r"\w+", blocks[0])
    assert "run_all" in names
    assert set(names) - set(vulnmap.__all__) == set(), "README imports names vulnmap does not export"


def _modules_added(*argv: str, imports: str = "vulnmap.cli") -> set[str]:
    """The modules that ``import <imports>``, then ``main(argv)`` if given, add in a new process.

    The modules the interpreter has loaded before the import, site's
    included, are left out.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(vulnmap.__file__).parents[1])}
    script = (
        f"import sys; bare = set(sys.modules); import {imports}; "
        "code = vulnmap.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
        "print(*sorted(set(sys.modules) - bare)); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_dataclass_machinery():
    """Records are NamedTuples, so a command never imports dataclasses or inspect.

    Nor does it import multiprocessing, concurrent.futures or pickle.
    """
    # Every module a command may import, so that the checks cover them all.
    added = _modules_added(
        imports="vulnmap.cli, vulnmap.ingest, vulnmap.lookup, vulnmap.match, vulnmap.report"
    )
    assert {"vulnmap.cpe", "vulnmap.fuzzy", "vulnmap.records", "vulnmap.store"} <= added
    assert added.isdisjoint({"dataclasses", "inspect"})
    # Ingest forks its input processes itself, without these modules' import time.
    assert added.isdisjoint({"multiprocessing", "concurrent.futures", "pickle"})
    # OpenSSL and libmpdec are loaded only where used: ingest's digests, report's shares.
    assert added.isdisjoint({"hashlib", "_hashlib", "decimal", "_decimal"})
    # Ingest's units, forks and joins load only where ingest runs.
    assert added.isdisjoint({"vulnmap.units", "signal"})
    # The README promises immutable records.
    evidence = vulnmap.Evidence(vulnmap.match.REPO_LINK, ("github.com/a/b",))
    result = vulnmap.MappingResult(
        vulnmap.Strategy.REPOSITORY, "CVE-2020-0001", "P1", "NPM", 1.0, evidence
    )
    for record, field in ((result, "platform"), (evidence, "kind"),
                          (vulnmap.ReportRow(("NPM",), 1), "count")):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """Each command imports what it runs, so none compiles another's modules.

    Without bytecode files (PYTHONDONTWRITEBYTECODE, a read-only install)
    every start compiles what it imports, about 1 ms per 100 lines.
    """
    ws = str(tmp_path / "ws")
    ingest = _modules_added("ingest", "--workspace", ws, "--packages", PACKAGES, "--cves", CVES)
    map_ = _modules_added("map", "--workspace", ws)
    report = _modules_added("report", "--workspace", ws, "--report", "all")
    # No command loads dataclasses, or forks through multiprocessing; OpenSSL
    # and libmpdec only where used. inspect is checked for report alone:
    # importlib.resources, which reads the default lookup tables, loads it
    # on Python 3.12 and later.
    for added in ingest, map_, report:
        assert added.isdisjoint({"dataclasses", "multiprocessing", "concurrent.futures", "pickle"})
    assert ingest.isdisjoint({"decimal", "_decimal"}) and map_.isdisjoint({"decimal", "_decimal"})
    assert report.isdisjoint({"hashlib", "_hashlib", "signal"})
    assert {"vulnmap.units", "vulnmap.ingest", "vulnmap.lookup"} <= ingest
    assert ingest.isdisjoint({"vulnmap.match", "vulnmap.fuzzy", "vulnmap.report"})
    assert {"vulnmap.match", "vulnmap.fuzzy"} <= map_
    assert map_.isdisjoint({"vulnmap.report", "vulnmap.units"})
    # report reads the store's records: neither the loaders, the CPE parser,
    # the matchers nor the lookup tables, and no gzip or inspect with them.
    assert {"vulnmap.records", "vulnmap.report", "vulnmap.store"} <= report
    assert report.isdisjoint({
        "vulnmap.ingest", "vulnmap.match", "vulnmap.fuzzy", "vulnmap.cpe", "vulnmap.lookup",
        "vulnmap.units", "gzip", "inspect",
    })
