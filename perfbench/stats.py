"""Percentile rules shared by the end-to-end and per-layer reports."""

from __future__ import annotations

import numpy as np

# Candidate tail percentiles, in per-mille so the "samples beyond" test is exact.
TAIL_LADDER_PERMILLE = (500, 900, 990, 999)
MIN_BEYOND = 10


def tail_permille(n: int) -> int | None:
    """Highest ladder percentile (per-mille) with at least 10 of ``n`` samples beyond it.

    ``None`` when even the median has fewer than 10 samples above it (n < 20).
    """
    best = None
    for q in TAIL_LADDER_PERMILLE:
        if n * (1000 - q) >= MIN_BEYOND * 1000:
            best = q
    return best


def tail(samples) -> dict:
    """Median, tail value, the tail percentile and the sample count of ``samples``.

    With fewer than 20 samples no percentile has 10 samples beyond it; the
    tail then falls back to the median and ``tail_percentile`` is ``None``.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_percentile": None, "samples": 0}
    q = tail_permille(arr.size)
    p50 = float(np.percentile(arr, 50))
    return {
        "p50": p50,
        "tail": float(np.percentile(arr, q / 10)) if q is not None else p50,
        "tail_percentile": q / 10 if q is not None else None,
        "samples": int(arr.size),
    }


def median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0
