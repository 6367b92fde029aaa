"""``ingest``'s units of work: the split of its inputs, one process per unit, and the join.

Only ``cli.cmd_ingest`` imports this module, so ``map`` and ``report`` never
compile it.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, NoReturn

from . import ingest as ing
from . import store
from .cli import EXIT_ERROR, EXIT_OK, CommandError

# Bytes read from the head of a CSV input to estimate its data rows.
_HEAD_BYTES = 1 << 16


def stage_inputs(inputs: dict[str, Path], stage: store.Workspace, cpus: int,
                 aliases, field_map) -> dict:
    """Read the inputs, by flag, into ``stage``'s store files; return the ingest summary."""
    answers = _each_input(
        lambda unit, *args: _stage_input(unit, *args, stage, aliases, field_map),
        _units(inputs, cpus), cpus > 1,
    )
    # An input's later parts join its part 0; every unit's rejects join, in order.
    store._append(stage.rejects_path, [_unit_path(stage, "rejects", unit) for unit in answers])
    by_flag = {flag: answer for (flag, part), answer in answers.items() if not part}
    versions = Counter()
    for (flag, part), answer in answers.items():
        for platform, year, count in answer.get("cells", ()):
            versions[platform, year] += count
        if part:
            by_flag[flag]["rows"] += answer["rows"]
            by_flag[flag]["rejects"] += answer["rejects"]
        if part and flag != "versions":
            rows = _unit_path(stage, "rows", (flag, part))
            store._append(getattr(stage, f"{flag}_path"), [rows])
    # One row per (platform, year), in order: the bytes do not depend on the parts.
    stage.write_ndjson(stage.versions_path, (
        ing.VersionCount(platform, year, count)
        for (platform, year), count in sorted(versions.items())
    ))
    rejects = {flag: a["rejects"] for flag, a in by_flag.items() if a["rejects"]}
    return {
        "packages": by_flag["packages"]["rows"],
        "versions": sum(versions.values()),
        "cves": by_flag["cves"]["rows"],
        "rejects": {"total": sum(rejects.values()), **rejects},
        "malformed_cpes": by_flag["cves"].get("malformed_cpes", 0),
        "inputs": {flag: {"sha256": a["sha256"]} for flag, a in by_flag.items()},
        "store_layout": store.STORE_LAYOUT,
    }


def _stage_input(unit: tuple[str, int], path: Path, row_range: tuple[int, int | None],
                 stage: store.Workspace, aliases, field_map) -> dict:
    """Read, normalize and stage one unit of an input; return its row and reject counts.

    Part 0 of the packages or the CVEs writes the input's store file; a later
    part writes a part file of its own. A versions unit writes no rows: it
    answers its count per (platform, year) as ``cells``. Each unit writes a
    part file of its rejects, and part 0 also answers the input's digest and
    tallies. ``stage_inputs`` joins the part files and sums the cells.
    """
    flag, part = unit
    rejected = 0
    tallies: dict = {}
    with stage.ndjson_sink(_unit_path(stage, "rejects", unit)) as write:
        def reject(entry: dict) -> None:
            """Write each reject as it arrives: a dump can hold millions."""
            nonlocal rejected
            write(entry)
            rejected += 1
        try:
            with ing.open_text_auto(path) as src:
                if flag == "cves":
                    records = ing.load_cves(
                        src, field_map=field_map, rejects=reject, tallies=tallies
                    )
                else:
                    load = ing.load_packages if flag == "packages" else ing.load_versions
                    records = load(src, rejects=reject, platform_aliases=aliases,
                                   row_range=row_range)
                if flag == "versions":
                    cells = ing.count_versions(records)
                    answer = {"rows": sum(cell.count for cell in cells), "cells": cells}
                else:
                    target = (_unit_path(stage, "rows", unit) if part
                              else getattr(stage, f"{flag}_path"))
                    answer = {"rows": stage.write_ndjson(target, records)}
        except ing.INPUT_DECODE_ERRORS as exc:  # before OSError: BadGzipFile is one
            raise CommandError(f"cannot read --{flag} input: {path}: {exc}") from None
        except (ing.CsvStructure, ing.JsonStructure) as exc:
            raise CommandError(str(exc)) from None
        except store.StoreWriteError:  # before OSError: it is one, and names its file
            raise
        except OSError as exc:
            raise CommandError(f"cannot read input: {exc}") from None
    answer["rejects"] = rejected
    return answer if part else {**answer, "sha256": store.sha256_file(path), **tallies}


def _unit_path(stage: store.Workspace, kind: str, unit: tuple[str, int]) -> Path:
    """The staged part file of ``kind`` ("rows" or "rejects") that one unit writes."""
    return stage.root / f"{kind}_{unit[0]}_{unit[1]}.ndjson"


def _units(inputs: dict[str, Path], cpus: int) -> dict[tuple[str, int], tuple]:
    """Split the inputs into ``(flag, part)`` units: each one's path and ``row_range``.

    A CSV input gets as many parts P as its share of all the input bytes is
    of the CPUs. Part i is data rows [i*K, (i+1)*K), the last to the end,
    with K the data rows over P estimated from the file's ``_HEAD_BYTES``.
    The CVE dump is one part; so is a gzip file, which every part would
    decompress from its start, and a CSV whose head ends no line.
    """
    sizes = {flag: path.stat().st_size for flag, path in inputs.items()}
    total = sum(sizes.values()) or 1
    units = {}
    for flag, path in inputs.items():
        parts = 1 if flag == "cves" else round(cpus * sizes[flag] / total)
        head = b""
        if parts > 1:
            try:
                with open(path, "rb") as fh:
                    head = fh.read(_HEAD_BYTES)
            except OSError as exc:
                raise CommandError(f"cannot read input: {exc}") from None
        lines = head.count(b"\n")  # the header and data rows, if no field holds a newline
        if head.startswith(ing._GZIP_MAGIC) or not lines:
            units[flag, 0] = (path, (0, None))
            continue
        k = (sizes[flag] * lines // len(head) - 1) // parts
        units.update(((flag, i), (path, (i * k, (i + 1) * k if i < parts - 1 else None)))
                     for i in range(parts))
    return units


def _each_input(stage_one: Callable[..., dict], units: dict[tuple, tuple], fork: bool) -> dict:
    """Call ``stage_one(unit, *args)`` on each unit; return its answers by unit, in order.

    A unit is ``(flag, part)``. With ``fork``, each call runs in a forked
    child that answers with one JSON line on a pipe; without, the calls run
    here, one after another. Either way the error of the first unit that
    fails, in order, is raised. Every child is reaped before this returns or
    raises; those still running then are killed first.
    """
    if not fork:
        return {unit: stage_one(unit, *args) for unit, args in units.items()}
    pids: dict[tuple, int] = {}  # the children not yet reaped
    pipes: dict[tuple, int] = {}  # the read ends not yet read
    try:
        for unit, args in units.items():
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _answer_and_exit(write_end, stage_one, unit, *args)
            os.close(write_end)
            pids[unit], pipes[unit] = pid, read_end
        answers = {}
        for unit in units:
            with open(pipes.pop(unit), encoding="utf-8") as fh:
                line = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(unit), 0)[1])
            if not line:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise CommandError(f"the process reading --{unit[0]} input ended without an "
                                   f"answer ({how})")
            answers[unit] = json.loads(line)
            if "error" in answers[unit]:
                raise CommandError(answers[unit]["error"])
        return answers
    finally:
        for fd in pipes.values():
            os.close(fd)
        if pids:
            import signal  # only here: building its enums would slow every command's start

            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _answer_and_exit(write_end: int, call: Callable[..., dict], *args) -> NoReturn:
    """In a forked child: write what ``call(*args)`` returns, or its error, as one JSON line; exit.

    The child never returns into the parent's code, so no context manager or
    exit handler of the parent's runs twice.
    """
    code = EXIT_ERROR
    try:
        try:
            answer = call(*args)
        except (CommandError, OSError) as exc:
            answer = {"error": str(exc)}
        with open(write_end, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(answer) + "\n")
        code = EXIT_OK
    except Exception:  # a fault, not an input error: its traceback, and no answer
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)
