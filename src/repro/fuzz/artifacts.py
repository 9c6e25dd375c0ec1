"""Failing-case repro artifacts: standalone programs plus replay data.

A divergence is only as good as its reproduction.  For every failing
case the harness writes two files into the artifact directory:

- ``<name>.pas`` / ``<name>.java`` / ``<name>.s`` -- the minimized
  program, runnable on its own through the normal toolchain;
- ``<name>.json`` -- the structured crash record: generator seed, case
  index, mode, the divergences observed, the shrink ratio, and a
  one-line replay command.

``mips-fuzz replay <artifact>.json`` regenerates the case from its
``(seed, index, mode)`` triple -- not from the dumped text -- and
re-runs the full oracle, so a replay proves the generator still
produces the failing program and the divergence still reproduces.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from .case import FuzzCase

SOURCE_SUFFIX = {"ast": ".pas", "minijava": ".java", "words": ".s"}


def dump_artifact(
    directory: str,
    case: FuzzCase,
    divergences,
    minimized: Optional[Dict[str, Any]] = None,
) -> str:
    """Write the repro pair for a failing case; returns the JSON path."""
    os.makedirs(directory, exist_ok=True)
    source = minimized["source"] if minimized else case.source
    source_path = os.path.join(directory, case.name + SOURCE_SUFFIX[case.mode])
    with open(source_path, "w") as fh:
        fh.write(source)
    record = {
        "name": case.name,
        "seed": case.seed,
        "index": case.index,
        "mode": case.mode,
        "source_file": os.path.basename(source_path),
        "divergences": list(divergences),
        "replay": case.replay_command,
        "minimized": (
            {"units": minimized["units"], "units_full": minimized["units_full"]}
            if minimized
            else None
        ),
    }
    json_path = os.path.join(directory, case.name + ".json")
    with open(json_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return json_path


def load_artifact(path: str) -> Dict[str, Any]:
    """Read a crash record back (tolerating a bare source path)."""
    with open(path) as fh:
        return json.load(fh)
