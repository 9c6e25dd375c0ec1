"""Result persistence and deterministic aggregation.

Records stream to a JSON-lines file in **completion order** -- the farm
never buffers a run's worth of results in one process's memory -- and
:func:`aggregate` reduces any ordering of those records to the same
summary: records are keyed and sorted by ``(job key, name, index)``
before reduction, and volatile fields (wall time, attempt counts, the
record's position in the stream) are excluded from the content digest.

Two runs of the same job set therefore agree byte-for-byte on the
aggregate digest whether they ran on one worker or sixteen -- the
property the CI farm-smoke job asserts.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import IO, Any, Dict, Iterable, List, Mapping, Optional

from .worker import json_safe_record

#: record fields that vary run-to-run and are excluded from the digest
VOLATILE_FIELDS = ("wall_s", "attempt", "attempts", "index")


class ResultStore:
    """Append-only JSON-lines result stream with in-memory mirroring."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records: List[Dict[str, Any]] = []
        self._handle: Optional[IO[str]] = open(path, "w") if path else None

    def append(self, record: Mapping[str, Any]) -> Dict[str, Any]:
        """Record one result; returns the JSON-safe form that was stored."""
        safe = json_safe_record(record)
        self.records.append(safe)
        if self._handle is not None:
            self._handle.write(json.dumps(safe, sort_keys=True) + "\n")
            self._handle.flush()
        return safe

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def load(path: str) -> List[Dict[str, Any]]:
        """Read a JSON-lines result stream back into records.

        A process killed mid-``append`` leaves a partial final line on
        disk; that is crash damage, not data loss -- every complete
        record is still intact.  The partial trailing record is skipped
        with a structured warning on stderr.  A malformed line anywhere
        *else* is real corruption and still raises.
        """
        with open(path) as handle:
            lines = [
                (number, line.strip())
                for number, line in enumerate(handle, start=1)
                if line.strip()
            ]
        records = []
        for position, (number, line) in enumerate(lines):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if position == len(lines) - 1:
                    print(
                        json.dumps(
                            {
                                "warning": "truncated-result-record",
                                "path": path,
                                "line": number,
                                "detail": f"skipped partial trailing record ({exc.msg})",
                            },
                            sort_keys=True,
                        ),
                        file=sys.stderr,
                    )
                    break
                raise ValueError(
                    f"{path}:{number}: corrupt result record mid-stream: {exc}"
                ) from exc
        return records


def stable_view(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The run-invariant part of a record (what the digest covers)."""
    return {
        k: v
        for k, v in json_safe_record(record).items()
        if k not in VOLATILE_FIELDS
    }


def aggregate(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Reduce records to a deterministic summary.

    Completion order does not matter: records are sorted by a stable
    key before reduction.  Duplicate job keys are surfaced rather than
    silently merged -- a farm bug that double-records a job must fail
    loudly in the consumers.
    """
    ordered = sorted(
        (dict(r) for r in records),
        key=lambda r: (r.get("job_key") or r.get("key") or "", r.get("name", ""), r.get("index", -1)),
    )
    by_status: Dict[str, int] = {}
    total_cycles = 0
    total_words = 0
    total_attempts = 0
    total_wall = 0.0
    seen_keys: Dict[str, int] = {}
    duplicates: List[str] = []
    failures: List[Dict[str, Any]] = []
    for record in ordered:
        status = record.get("status", "error")
        by_status[status] = by_status.get(status, 0) + 1
        total_cycles += record.get("cycles") or 0
        total_words += record.get("words") or 0
        total_attempts += record.get("attempts") or record.get("attempt") or 1
        total_wall += record.get("wall_s") or 0.0
        key = record.get("job_key") or record.get("key") or ""
        seen_keys[key] = seen_keys.get(key, 0) + 1
        if key and seen_keys[key] == 2:
            duplicates.append(key)
        if status != "ok":
            failures.append(
                {
                    "name": record.get("name"),
                    "status": status,
                    "error": record.get("error"),
                }
            )
    digest_payload = json.dumps(
        [stable_view(r) for r in ordered], sort_keys=True, separators=(",", ":")
    )
    return {
        "jobs": len(ordered),
        "by_status": dict(sorted(by_status.items())),
        "total_cycles": total_cycles,
        "total_words": total_words,
        "total_attempts": total_attempts,
        "total_wall_s": total_wall,
        "duplicates": duplicates,
        "failures": failures,
        "digest": hashlib.sha256(digest_payload.encode()).hexdigest(),
    }


def render_summary(summary: Mapping[str, Any]) -> str:
    """A plain-text view of an aggregate (the ``mips-farm status`` body)."""
    lines = [
        f"jobs:        {summary['jobs']}",
        "status:      "
        + ", ".join(f"{k}={v}" for k, v in summary["by_status"].items()),
        f"cycles:      {summary['total_cycles']}",
        f"words:       {summary['total_words']}",
        f"attempts:    {summary['total_attempts']}",
        f"wall time:   {summary['total_wall_s']:.2f}s (sum over jobs)",
        f"digest:      {summary['digest']}",
    ]
    if summary["duplicates"]:
        lines.append(f"DUPLICATED JOB KEYS: {', '.join(summary['duplicates'])}")
    for failure in summary["failures"]:
        error = failure.get("error") or {}
        lines.append(
            f"  failed: {failure['name']} [{failure['status']}] "
            f"{error.get('type', '')}: {error.get('message', '')}"
        )
    return "\n".join(lines)
