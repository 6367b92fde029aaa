"""vulnmap: map CVE entries to open-source packages and report the frequencies.

Every name of ``__all__``, and every module that exports one, resolves from
here, but a module is imported only when one of its names is first used
(PEP 562), so ``import vulnmap`` and each command compile only the modules
they use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each module of the package that exports names here, with those names.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "cpe": ("CpeRecord", "MalformedCpe", "Part", "normalize_component", "parse_cpe23"),
    "fuzzy": ("EmptyInput", "GramProfile", "best_match", "gram_profile", "similarity"),
    "records": (
        "CveCpe", "CveRecord", "PackageRecord", "VersionCount", "Evidence", "MappingResult",
        "Strategy",
    ),
    "ingest": (
        "CsvStructure", "JsonStructure", "extract_repo_link", "load_cves", "load_packages",
        "load_versions",
    ),
    "lookup": ("PlatformLookup", "default_lookup_config", "load_lookup_config"),
    "match": (
        "build_indexes", "extract_reference_links", "infer_platform", "run_all",
    ),
    "report": (
        "PackageCounts", "Report", "ReportRow", "cve_per_year", "export_report",
        "license_distribution", "mapped_cve_per_year", "package_counts",
        "platform_project_share", "top_repo_links", "versions_per_year",
        "vulnerable_package_count",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _EXPORTS:  # importing a submodule also binds it here
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_EXPORTS})
