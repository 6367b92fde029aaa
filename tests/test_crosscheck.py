"""The benchmark's reference check still agrees with the program's records.

``perfbench/crosscheck.py`` parses a workload's inputs with vulnmap's
loaders and reads the records' fields (``ingest.cve_products``, each CPE's
``target_sw``), so a change to those records that breaks the benchmark's
cross-check fails here.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["bulk-dump", "fuzzy-pool", "fuzzy-score"])
def test_benchmark_crosscheck_agrees(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import crosscheck

    assert crosscheck.check(workload, 1, tmp_path)
