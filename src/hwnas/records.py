"""Objective vectors, evaluation records, and the append-only JSONL run log.

The run log holds one :class:`EvaluationRecord` per line, of two kinds: a
measured architecture, and a failure event, whose ``objectives`` is null,
for a genome whose measurement failed after its retries.  Both are written
by :meth:`EvaluationRecord.to_json_dict` and :func:`append_log_line`, and
read back by :func:`read_log`, which parses each line once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .search_space import CellGenome

OBJECTIVE_NAMES = ("error", "energy", "time")

SOURCE_BO = "bo"
SOURCE_RANDOM = "random"
SOURCE_REEVAL = "reeval"


class LogError(ValueError):
    """Corrupt or inconsistent run-log content."""


def _typed(d: dict, name: str, kinds: tuple[type, ...], what: str):
    """``d[name]``, refused unless its type is exactly one of ``kinds``: no value is converted."""
    value = d[name]
    if type(value) not in kinds:  # a bool is not an int here
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return value


def normalize_subset(subset) -> tuple[str, ...]:
    """Canonicalize an objective subset to (error, energy, time) order."""
    if subset is None:
        return OBJECTIVE_NAMES
    chosen = set(subset)
    unknown = chosen - set(OBJECTIVE_NAMES)
    if unknown:
        raise ValueError(f"unknown objectives {sorted(unknown)}; valid: {OBJECTIVE_NAMES}")
    if not chosen:
        raise ValueError("objective subset must be non-empty")
    return tuple(name for name in OBJECTIVE_NAMES if name in chosen)


@dataclass(frozen=True)
class ObjectiveVector:
    """(error fraction, energy in joules, inference time in seconds); all minimized."""

    error: float
    energy_j: float
    time_s: float

    def __post_init__(self) -> None:
        for name, v in (("error", self.error), ("energy_j", self.energy_j), ("time_s", self.time_s)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not 0.0 <= self.error <= 1.0:
            raise ValueError(f"error must be a fraction in [0, 1], got {self.error}")
        if self.energy_j < 0 or self.time_s < 0:
            raise ValueError("energy and time must be non-negative")

    def values(self, subset=None) -> tuple[float, ...]:
        sel = normalize_subset(subset)
        by_name = {"error": self.error, "energy": self.energy_j, "time": self.time_s}
        return tuple(by_name[name] for name in sel)

    def to_json_dict(self) -> dict:
        return {"error": self.error, "energy_j": self.energy_j, "time_s": self.time_s}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ObjectiveVector":
        names = ("error", "energy_j", "time_s")
        return cls(*(float(_typed(d, name, (int, float), "a number")) for name in names))


def transform_values(values: np.ndarray, subset) -> np.ndarray:
    """Map raw objective columns to model space: error unchanged, energy/time logged.

    Energy and time span decades across devices, so their surrogates are fit
    on log values.  Zero is guarded with a tiny floor.
    """
    sel = normalize_subset(subset)
    out = np.asarray(values, dtype=float).copy()
    for j, name in enumerate(sel):
        if name in ("energy", "time"):
            out[..., j] = np.log(np.maximum(out[..., j], 1e-12))
    return out


def objective_matrix(records, subset=None) -> np.ndarray:
    """(n, len(subset)) raw objective values, columns in canonical subset order.

    Each record's three fields are read once; the subset picks columns of the
    full matrix, so no per-record subset handling is paid.
    """
    cols = [OBJECTIVE_NAMES.index(name) for name in normalize_subset(subset)]
    full = np.array(
        [(o.error, o.energy_j, o.time_s) for o in (r.objectives for r in records)], dtype=float
    ).reshape(len(records), len(OBJECTIVE_NAMES))
    return full[:, cols]


@dataclass(frozen=True)
class EvaluationRecord:
    """One run-log line: a measured architecture, or a failure event (``objectives`` None)."""

    genome: CellGenome
    objectives: ObjectiveVector | None
    device: str
    iteration: int
    source: str
    timestamp: str
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # Key order is part of the log format.
        return {
            "iteration": self.iteration,
            "source": self.source,
            "device": self.device,
            "genome": self.genome.to_json_dict(),
            "objectives": None if self.objectives is None else self.objectives.to_json_dict(),
            "timestamp": self.timestamp,
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EvaluationRecord":
        objectives, meta = d["objectives"], d.get("meta")
        if not isinstance(meta, (dict, type(None))):
            raise TypeError(f"meta must be a JSON object or null, got {meta!r}")
        return cls(
            genome=CellGenome.from_json_dict(d["genome"]),
            objectives=None if objectives is None else ObjectiveVector.from_json_dict(objectives),
            device=_typed(d, "device", (str,), "a string"),
            iteration=_typed(d, "iteration", (int,), "an integer"),
            source=_typed(d, "source", (str,), "a string"),
            timestamp=_typed(d, "timestamp", (str,), "a string"),
            meta={} if meta is None else dict(meta),
        )


def logical_timestamp(iteration: int) -> str:
    """Deterministic per-iteration timestamp.

    Run logs must be byte-identical across interrupt/resume and across
    repeated runs with the same seed, so records carry logical time (epoch +
    iteration seconds) rather than wall-clock time.
    """
    return datetime.fromtimestamp(iteration, tz=timezone.utc).isoformat()


def append_log_line(path: str | Path, d: dict) -> None:
    """Append one JSON line and flush to disk immediately (crash-safe log)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(d, separators=(",", ":")) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def mend_torn_tail(path: str | Path) -> str | None:
    """Repair a last line that a crash cut short; say what was done, or None.

    ``append_log_line`` writes each line with its newline in one call, so a
    last line without a newline was being written when the run died.  If it
    does not parse, it was never written: it is truncated away.  If it
    parses, only the newline is missing and it is added, so the next append
    starts a line of its own.  A terminated bad line is left for
    ``read_log`` to reject, since the writer finished it.  Call it only while
    holding the log's lock.
    """
    path = Path(path)
    with open(path, "rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return None
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return None
        fh.seek(0)
        data = fh.read()
        start = data.rfind(b"\n") + 1
        try:
            json.loads(data[start:])
        except ValueError:
            fh.truncate(start)
            action = f"dropped {size - start} bytes of an unfinished last line from {path}"
        else:
            fh.write(b"\n")
            action = f"added the missing newline after the last line of {path}"
        fh.flush()
        os.fsync(fh.fileno())
    return action


_REQUIRED_KEYS = ("iteration", "genome", "objectives")


def read_log(path: str | Path) -> list[EvaluationRecord]:
    """Parse a JSONL run log into one record per non-blank line, failure events included.

    A line is refused with a :class:`LogError` naming the path and line when
    it is not UTF-8 or not a JSON object, lacks one of ``iteration``,
    ``genome`` and ``objectives``, or holds a value that does not parse.  One run searches
    one space, so a genome whose block count differs from the first line's
    is refused the same way, and so is a measured record whose iteration
    does not follow the last one's (they run 0, 1, 2, ...).
    """
    records: list[EvaluationRecord] = []
    first: tuple[int, int] | None = None  # (line, block count) of the first record
    measured = 0
    # bytes.splitlines breaks at \n, \r\n and \r only: the line ends of text mode.
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise LogError(f"{path}:{lineno}: not valid UTF-8: {exc}") from exc
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(entry, dict):
            raise LogError(f"{path}:{lineno}: expected a JSON object, got {type(entry).__name__}")
        missing = [key for key in _REQUIRED_KEYS if key not in entry]
        if missing:
            raise LogError(f"{path}:{lineno}: missing {', '.join(missing)}")
        try:
            record = EvaluationRecord.from_json_dict(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise LogError(f"{path}:{lineno}: unreadable entry: {type(exc).__name__}: {exc}") from exc
        blocks = record.genome.num_blocks
        if first is None:
            first = (lineno, blocks)
        elif blocks != first[1]:
            raise LogError(f"{path}:{lineno}: genome has {blocks} blocks, line {first[0]}'s has {first[1]}")
        if record.objectives is not None:
            if record.iteration != measured:
                raise LogError(
                    f"{path}:{lineno}: measured iterations not consecutive: "
                    f"expected {measured}, found {record.iteration}"
                )
            measured += 1
        records.append(record)
    return records


def load_records(path: str | Path) -> list[EvaluationRecord]:
    """The measured records of a run log; failure events are left out."""
    return [record for record in read_log(path) if record.objectives is not None]
