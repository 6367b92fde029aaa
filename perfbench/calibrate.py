"""A fixed pure-Python workload that measures how fast the CPU runs.

    python3 perfbench/calibrate.py

run.py starts it the way it starts a vulnmap command, just before each
untraced command, and times the whole process, interpreter start included.
It parses CSV rows and JSON documents, matches a URL pattern, counts names
and compares strings by their trigrams, as vulnmap's loaders and fuzzy
matcher do, but it never imports vulnmap: a change to the program leaves
its time as it was.
"""

import csv
import json
import re

ROWS = [f'{i},NPM,Pkg-{i % 997}-core,"Helpers for {i}",MIT,https://github.com/o{i % 89}/r{i}.git'
        for i in range(3000)]
DOCS = [json.dumps({"id": f"CVE-2020-{1000 + i}", "summary": f"Flaw {i} in the npm package",
                    "references": [f"https://example.com/{i}",
                                   f"https://github.com/o/r{i}/issues/1"],
                    "vulnerable_configuration": [f"cpe:2.3:a:v{i}:p{i % 97}:1.{j}:*:*:*:*:*:*:*"
                                                 for j in range(4)]})
        for i in range(750)]
LINK = re.compile(r"https?://(?:www\.)?(github\.com|gitlab\.com)/([^/]+)/([^/#?]+)")


def trigrams(text: str) -> set[str]:
    padded = f"  {text} "
    return {padded[i:i + 3] for i in range(len(padded) - 2)}


def work() -> int:
    names: dict[str, int] = {}
    links = set()
    for row in csv.reader(ROWS):
        name = row[2].strip().lower()
        names[name] = names.get(name, 0) + 1
        m = LINK.match(row[5])
        if m:
            links.add("/".join(m.groups()).removesuffix(".git"))
    for doc in map(json.loads, DOCS):
        words = set(doc["summary"].lower().split())
        for cpe in doc["vulnerable_configuration"]:
            parts = cpe.split(":")
            names[parts[4]] = len(words) + len(parts)
    query = trigrams("pkg-42-core")
    close = sum(len(query & trigrams(name)) > 4 for name in names)
    return len(links) + close


if __name__ == "__main__":
    for _ in range(3):
        work()
