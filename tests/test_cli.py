import gzip
import json
from pathlib import Path

import pytest

from vulnmap.cli import main
from vulnmap.store import Workspace

FIXTURES = Path(__file__).parent / "fixtures"
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
    assert payload["results"]["strict"] >= 1  # the lodash and django entries map


def test_map_single_strategy_single_mode(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    code, _, _ = run(capsys, "map", "--workspace", str(ws),
                     "--strategy", "repository", "--mode", "first")
    assert code == 0
    produced = sorted(p.name for p in ws.glob("mappings_*.ndjson"))
    assert produced == ["mappings_repository_first.ndjson"]


def test_map_repository_without_mode_runs_both(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    run(capsys, "map", "--workspace", str(ws), "--strategy", "repository")
    produced = sorted(p.name for p in ws.glob("mappings_*.ndjson"))
    assert produced == ["mappings_repository_all.ndjson", "mappings_repository_first.ndjson"]


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


def test_report_json_format(tmp_path, capsys):
    ws = tmp_path / "ws"
    ingest(capsys, ws)
    code, _, _ = run(capsys, "report", "--workspace", str(ws),
                     "--report", "cve-per-year", "--format", "json")
    assert code == 0
    doc = json.loads((ws / "report_cve_per_year.json").read_text(encoding="utf-8"))
    assert sum(row["count"] for row in doc["rows"]) == 50


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
    code, _, err = run(capsys, "report", "--workspace", str(ws), "--report", "bogus")
    assert code == 2
    assert "bogus" in err


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
    packages = [json.loads(line) for line in (ws / "packages.ndjson").read_text().splitlines()]
    platforms = {p["platform"] for p in packages}
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
