import json
import os
import select
import signal
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import vulnmap
from test_match import mk_cve, mk_pkg
from vulnmap.cpe import Part
from vulnmap.ingest import VersionRecord, load_cves, load_packages
from vulnmap.match import default_lookup_config, run_all
from vulnmap.store import Workspace, WorkspaceLocked, mapping_from_dict, mapping_to_dict

FIXTURES = Path(__file__).parent / "fixtures"


def test_package_round_trip(tmp_path):
    with_repo = mk_pkg("p1", "NPM", "lodash", keywords=("a", "b"),
                       repo_url="https://github.com/lodash/lodash", license="MIT")
    without_repo = mk_pkg("p2", "Pypi", "requests")
    ws = Workspace(tmp_path).ensure()
    ws.write_ndjson(ws.packages_path, (with_repo, without_repo))
    assert ws.load_packages() == [with_repo, without_repo]


def test_cve_round_trip(tmp_path):
    dated = mk_cve("CVE-2019-0001", summary="s", refs=("https://x",),
                   products=[("lodash", "node.js"), ("foo\\:bar", "*")])
    undated = dated._replace(cve_id="CVE-2019-0002", published=None)
    ws = Workspace(tmp_path).ensure()
    ws.write_ndjson(ws.cves_path, (dated, undated))
    loaded = ws.load_cves()
    assert loaded == [dated, undated]
    assert loaded[0].cpes[1].product == "foo:bar"
    assert loaded[0].cpes[0].part is Part.APPLICATION


def test_version_round_trip(tmp_path):
    version = VersionRecord("p1", "NPM", "1.0.0", date(2019, 2, 3))
    ws = Workspace(tmp_path).ensure()
    ws.write_ndjson(ws.versions_path, (version,))
    assert ws.load_versions() == [version]


def test_mapping_round_trip_all_strategies():
    with open(FIXTURES / "packages_oracle.csv", encoding="utf-8", newline="") as fh:
        packages = list(load_packages(fh, platform_aliases={"rubygems": "Ruby"}))
    with open(FIXTURES / "cves_oracle.ndjson", encoding="utf-8") as fh:
        cves = list(load_cves(fh))
    outcome = run_all(packages, cves, default_lookup_config().lookup)
    for results in outcome.results.values():
        assert results
        for result in results:
            assert mapping_from_dict(mapping_to_dict(result)) == result


def test_workspace_snapshots(tmp_path):
    ws = Workspace(tmp_path / "ws").ensure()
    packages = [mk_pkg("p1", "NPM", "lodash"), mk_pkg("p2", "Pypi", "requests")]
    count = ws.write_ndjson(ws.packages_path, packages)
    assert count == 2
    assert ws.load_packages() == packages
    assert ws.load_versions() == []  # file absent
    ws.write_summary({"packages": 2})
    assert ws.read_summary() == {"packages": 2}


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
