"""The package's exports: every name imports from ``vulnmap``, each module only when used."""

import os
import subprocess
import sys
from pathlib import Path

import vulnmap

# Run in a new process, so that no test has imported a module before it.
LAZY_EXPORTS = r"""
import importlib, sys
import vulnmap

loaded = sorted(m for m in sys.modules if m.startswith("vulnmap."))
assert loaded == [], f"import vulnmap loaded {loaded}"

# A submodule resolves as an attribute without being imported first.
assert vulnmap.match is sys.modules["vulnmap.match"], "vulnmap.match"

assert set(vulnmap.__all__) <= set(dir(vulnmap)), "dir(vulnmap) leaves out names of __all__"
for name in vulnmap.__all__:
    obj = getattr(vulnmap, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("vulnmap."), (name, home)
    assert getattr(home, name) is obj, f"vulnmap.{name} is not {home.__name__}.{name}"

namespace = {}
exec("from vulnmap import *", namespace)
unbound = [name for name in vulnmap.__all__ if namespace.get(name) is not getattr(vulnmap, name)]
assert not unbound, f"from vulnmap import * leaves out {unbound}"

try:
    vulnmap.no_such_name
except AttributeError as exc:
    assert "vulnmap" in str(exc) and "no_such_name" in str(exc), str(exc)
else:
    raise AssertionError("vulnmap.no_such_name raised nothing")

# The records and the lookup configuration still import from their old modules.
import vulnmap.ingest, vulnmap.lookup, vulnmap.records
assert vulnmap.ingest.PackageRecord is vulnmap.records.PackageRecord
assert vulnmap.match.MappingResult is vulnmap.records.MappingResult
assert vulnmap.match.default_lookup_config is vulnmap.lookup.default_lookup_config
print("ok")
"""


def test_exports_load_their_modules_only_when_used():
    env = {**os.environ, "PYTHONPATH": str(Path(vulnmap.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_EXPORTS], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
