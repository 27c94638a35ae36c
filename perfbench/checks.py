"""Correctness checks on one timed call's run log; each returns failure messages."""

from __future__ import annotations

import json
import math
from pathlib import Path

from hwnas.search_space import CellGenome, GenomeError, validate_genome

# Trace-derived numbers may be recomputed in another summation order by a later
# version of the program; a stale or mis-parsed response differs far more.
REL_TOL = 1e-9


def parse_log(raw: bytes) -> list[dict]:
    """Every JSON line of a run log, records and failure events alike."""
    return [json.loads(line) for line in raw.decode("utf-8").splitlines() if line.strip()]


def check_log(entries: list[dict], budget: int, lock_path: Path) -> list[str]:
    """Budget, consecutive iterations, valid unique genomes, finite positive objectives, no lock."""
    problems = []
    records = [e for e in entries if e.get("objectives") is not None]
    if len(records) != budget:
        problems.append(f"log holds {len(records)} records, expected {budget}")
    iterations = [e.get("iteration") for e in records]
    if iterations != list(range(len(records))):
        problems.append("log iterations are not 0, 1, 2, ... in order")
    seen = set()
    for e in records:
        try:
            genome = CellGenome.from_json_dict(e["genome"])
            violations = validate_genome(genome)
        except (GenomeError, KeyError, TypeError) as exc:
            violations = [str(exc)]
        if violations:
            problems.append(f"iteration {e.get('iteration')}: invalid genome: {'; '.join(violations)}")
            continue
        key = tuple(tuple(row) for row in e["genome"]["blocks"])
        if key in seen:
            problems.append(f"iteration {e['iteration']}: genome evaluated twice")
        seen.add(key)
        objectives = e["objectives"]
        for name in ("error", "energy_j", "time_s"):
            value = objectives.get(name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                problems.append(f"iteration {e['iteration']}: {name} = {value!r} is not finite and positive")
    if lock_path.exists():
        problems.append(f"lock file {lock_path} left behind")
    return problems


def check_prefix(raw: bytes, prefix: bytes) -> list[str]:
    """The resumed log must start with the set-up prefix, byte for byte."""
    return [] if raw.startswith(prefix) else ["resumed log does not start with the set-up prefix"]


def _cksum_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 24
        for _ in range(8):
            crc = ((crc << 1) ^ 0x04C11DB7 if crc & 0x80000000 else crc << 1) & 0xFFFFFFFF
        table.append(crc)
    return table


_CKSUM_TABLE = _cksum_table()


def posix_cksum(data: bytes) -> int:
    """The checksum POSIX ``cksum`` prints: CRC-32 (0x04C11DB7) over the data and its length."""
    crc = 0
    length = len(data)
    tail = bytearray()
    while length:
        tail.append(length & 0xFF)
        length >>= 8
    for byte in data + bytes(tail):
        crc = ((crc << 8) & 0xFFFFFFFF) ^ _CKSUM_TABLE[(crc >> 24) ^ byte]
    return ~crc & 0xFFFFFFFF


def check_external(entries: list[dict], requests: list[tuple[dict, bytes]], expected: list[dict]) -> list[str]:
    """Each record must carry the numbers of the response its own request selects.

    ``requests`` holds (genome JSON, ``request.json`` bytes) for every
    evaluator return, in order.  The adapter answers a request with response
    ``cksum(request.json) % len(expected)``; ``expected[k]`` holds the error,
    energy and time measured directly from response k's trace.  The expected
    numbers are worked out from the request alone, so a stale or mis-parsed
    ``response.json`` cannot vouch for itself.
    """
    records = [e for e in entries if e.get("objectives") is not None]
    if len(records) != len(requests):
        return [f"{len(records)} records but {len(requests)} evaluator returns"]
    problems = []
    for e, (genome, request) in zip(records, requests):
        try:
            request_genome = json.loads(request)["genome"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"iteration {e['iteration']}: unreadable request.json: {exc}")
            continue
        if not e["genome"] == genome == request_genome:
            problems.append(f"iteration {e['iteration']}: record, evaluator call and request.json name different genomes")
            continue
        k = posix_cksum(request) % len(expected)
        want = expected[k]
        for name in ("error", "energy_j", "time_s"):
            have = e["objectives"][name]
            if not math.isclose(have, want[name], rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(
                    f"iteration {e['iteration']}: {name} = {have!r}, but response {k} for its request gives {want[name]!r}"
                )
    return problems
