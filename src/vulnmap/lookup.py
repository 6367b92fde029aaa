"""The platform lookup configuration: the tables that infer a CVE's package manager."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple


class PlatformLookup:
    """Per-platform inference tables: target_sw aliases, summary keywords, reference hosts."""

    def __init__(
        self,
        target_sw_aliases: dict[str, frozenset[str]],
        summary_keywords: dict[str, frozenset[str]],
        reference_hosts: dict[str, frozenset[str]],
    ):
        for label, table in (
            ("target_sw", target_sw_aliases),
            ("keywords", summary_keywords),
            ("hosts", reference_hosts),
        ):
            seen: dict[str, str] = {}
            for platform, tokens in table.items():
                for token in tokens:
                    if not token:
                        raise ValueError(f"{label} entries must not be empty")
                    if token != token.lower():
                        raise ValueError(f"{label} entry {token!r} must be lowercase")
                    if token in seen and seen[token] != platform:
                        raise ValueError(
                            f"{label} entry {token!r} mapped to both "
                            f"{seen[token]!r} and {platform!r}"
                        )
                    seen[token] = platform
        self.target_sw_aliases = target_sw_aliases
        self.summary_keywords = summary_keywords
        self.reference_hosts = reference_hosts


class LookupConfig(NamedTuple):
    """Contents of a lookup configuration file."""

    lookup: PlatformLookup
    platform_aliases: dict[str, str]


def _to_lookup_config(doc) -> LookupConfig:
    """Build a LookupConfig from a parsed document; ValueError names a bad shape."""
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    platforms = doc.get("platforms", {})
    aliases = doc.get("platform_aliases", {})
    if not isinstance(platforms, dict) or not all(isinstance(e, dict) for e in platforms.values()):
        raise ValueError('"platforms" must map each platform to an object')
    if not isinstance(aliases, dict) or not all(
        k and v and isinstance(v, str) for k, v in aliases.items()
    ):
        raise ValueError('"platform_aliases" must map each non-empty label to a platform string')

    def table(key: str) -> dict[str, frozenset[str]]:
        out = {}
        for platform, entry in platforms.items():
            tokens = entry.get(key, [])
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise ValueError(f'"platforms.{platform}.{key}" must be a list of strings')
            out[platform] = frozenset(t.lower() for t in tokens)
        return out

    return LookupConfig(
        lookup=PlatformLookup(
            target_sw_aliases=table("target_sw"),
            summary_keywords=table("keywords"),
            reference_hosts=table("hosts"),
        ),
        platform_aliases=dict(aliases),
    )


def load_lookup_config(path: str | Path) -> LookupConfig:
    with open(path, encoding="utf-8") as fh:
        return _to_lookup_config(json.load(fh))


def default_lookup_config() -> LookupConfig:
    """Lookup table shipped with the package (editable copy via --lookup)."""
    # Only here: a --lookup file needs none of it, and from Python 3.12 it loads inspect.
    from importlib.resources import files as resource_files

    text = resource_files("vulnmap").joinpath("data/default_lookup.json").read_text("utf-8")
    return _to_lookup_config(json.loads(text))
