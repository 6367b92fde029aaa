"""Hold the benchmark's expected mappings against the oracles in tests/helpers.py.

    python3 perfbench/crosscheck.py [--seeds 1,2,3]

For each workload and seed this generates the benchmark's inputs, parses
them with vulnmap's loaders, and checks that:

* the parsed records equal the generator's corpus (the records expect.py
  works from), and
* the brute-force oracles, run on the parsed records, give exactly the
  mapping sets expect.py computes for the same corpus.

The oracles are O(CVEs x packages); at the benchmark's sizes a seed takes a
few seconds. Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

import expect  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tests.helpers import oracle_fuzzy, oracle_repository, oracle_strict  # noqa: E402
from vulnmap import default_lookup_config, ingest  # noqa: E402


def parsed_matches_corpus(corpus: gen.Corpus, packages, cves) -> bool:
    want_packages = [(p.key, p.platform, p.name, p.keywords, p.license) for p in corpus.packages]
    got_packages = [(p.package_key, p.platform, p.name, p.keywords, p.license) for p in packages]
    want_cves = [(c.cve_id, c.summary, c.references, c.year, c.products, c.targets)
                 for c in corpus.cves]
    got_cves = [(c.cve_id, c.summary, c.references, c.year, tuple(ingest.cve_products(c)),
                 frozenset(p.target_sw for p in c.cpes if p.target_sw not in ("", "*", "-")))
                for c in cves]
    return want_packages == got_packages and want_cves == got_cves


def check(workload: str, seed: int, directory: Path) -> bool:
    corpus = gen.generate(workload, run.WORKLOADS[workload], seed, directory)
    config = default_lookup_config()
    with ingest.open_text_auto(corpus.packages_path) as fh:
        packages = list(ingest.load_packages(fh, platform_aliases=config.platform_aliases))
    with ingest.open_text_auto(corpus.cves_path) as fh:
        cves = list(ingest.load_cves(fh))
    ok = parsed_matches_corpus(corpus, packages, cves)
    expected = {key: {record[1:] for record in records}
                for key, records in expect.mappings(corpus).items()}
    oracles = {
        "strict": oracle_strict(packages, cves, config.lookup),
        "fuzzy": oracle_fuzzy(packages, cves, config.lookup, expect.CUTOFF),
        "repository_all": oracle_repository(packages, cves, "all"),
        "repository_first": oracle_repository(packages, cves, "first"),
    }
    sizes = []
    for key, found in oracles.items():
        ok = ok and found == expected[key]
        sizes.append(f"{key} {len(found)}")
    print(f"{workload} seed {seed} ({len(packages)} packages, {len(cves)} CVEs): "
          f"{'agree' if ok else 'DIFFER'}; {', '.join(sizes)}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()
    ok = True
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for workload in run.WORKLOADS:
            for seed in map(int, args.seeds.split(",")):
                ok &= check(workload, seed, Path(tmp) / f"{workload}-{seed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
