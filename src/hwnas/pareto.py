"""Pareto dominance, non-dominated filtering, and exact hypervolume (2-D/3-D).

All objectives are minimized.  Hypervolume of a point set w.r.t. a reference
point ``ref`` is the Lebesgue measure of the union of boxes [p, ref]; it is
computed by a staircase sweep in 2-D and by z-slicing in 3-D.  A disjoint box
decomposition of the dominated region is exposed for vectorized, closed-form
expected-improvement queries.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .records import EvaluationRecord, ObjectiveVector, normalize_subset, objective_matrix


def dominates(a: ObjectiveVector, b: ObjectiveVector, subset=None) -> bool:
    """True iff ``a`` is no worse than ``b`` everywhere on the subset and differs."""
    va = a.values(subset)
    vb = b.values(subset)
    return all(x <= y for x, y in zip(va, vb)) and va != vb


def non_dominated_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row (duplicates all kept).

    Rows are visited in lexicographic order.  A row sorts strictly before
    every row it dominates, so each visited survivor is on the front and only
    has to prune the rows after it; the loop body runs once per front row.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    order = np.lexsort(values.T[::-1]) if values.shape[1] else np.arange(n)
    ordered = values[order]
    alive = np.ones(n, dtype=bool)
    for i in range(n):
        if not alive[i]:
            continue
        rest = ordered[i + 1 :]
        row = ordered[i]
        alive[i + 1 :] &= np.any(rest < row, axis=1) | np.all(rest == row, axis=1)
    keep = np.empty(n, dtype=bool)
    keep[order] = alive
    return keep


def pareto_filter(records: list[EvaluationRecord], subset=None) -> list[EvaluationRecord]:
    """Records not dominated by any other record on the subset, original order kept."""
    if not records:
        return []
    mask = non_dominated_mask(objective_matrix(records, subset))
    return [records[i] for i in np.flatnonzero(mask)]


def _filter_interior(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Keep only points strictly better than ref on every axis; others add no volume."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values.reshape(0, ref.shape[0])
    return values[np.all(values < ref, axis=1)]


def _staircase_2d(values: np.ndarray) -> np.ndarray:
    """Strictly improving staircase (x ascending, y descending) of a 2-D point set."""
    order = np.lexsort((values[:, 1], values[:, 0]))
    pts = values[order]
    stairs: list[np.ndarray] = []
    best_y = np.inf
    for p in pts:
        if p[1] < best_y:
            stairs.append(p)
            best_y = p[1]
    return np.array(stairs)


def _hv2d(values: np.ndarray, ref: np.ndarray) -> float:
    pts = _filter_interior(values, ref)
    if pts.shape[0] == 0:
        return 0.0
    stairs = _staircase_2d(pts)
    xs = np.append(stairs[:, 0], ref[0])
    return float(np.sum((xs[1:] - xs[:-1]) * (ref[1] - stairs[:, 1])))


def _hv3d(values: np.ndarray, ref: np.ndarray) -> float:
    pts = _filter_interior(values, ref)
    if pts.shape[0] == 0:
        return 0.0
    z_levels = np.unique(pts[:, 2])
    hv = 0.0
    for i, z in enumerate(z_levels):
        z_next = z_levels[i + 1] if i + 1 < len(z_levels) else ref[2]
        active = pts[pts[:, 2] <= z]
        hv += _hv2d(active[:, :2], ref[:2]) * (z_next - z)
    return hv


def hypervolume_values(values: np.ndarray, ref: np.ndarray) -> float:
    """Hypervolume of raw value rows w.r.t. ``ref`` (1-D trivial, 2-D sweep, 3-D slices)."""
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.ndim != 2 or values.shape[1] != ref.shape[0]:
        raise ValueError("values must be (n, d) matching the reference dimension")
    d = ref.shape[0]
    if d == 1:
        pts = _filter_interior(values, ref)
        return float(ref[0] - pts.min()) if pts.size else 0.0
    if d == 2:
        return _hv2d(values, ref)
    if d == 3:
        return _hv3d(values, ref)
    raise ValueError(f"hypervolume supports 1-3 objectives, got {d}")


def hypervolume(points: list[ObjectiveVector], ref: ObjectiveVector, subset=None) -> float:
    """Hypervolume of objective vectors over the chosen subset (size 2 or 3).

    Points that do not strictly dominate the reference are excluded, not errors.
    """
    sel = normalize_subset(subset)
    ref_v = np.asarray(ref.values(sel), dtype=float)
    vals = np.array([p.values(sel) for p in points], dtype=float).reshape(len(points), len(sel))
    return hypervolume_values(vals, ref_v)


def _staircase_rects(pts2: np.ndarray, ref2: np.ndarray) -> set[tuple[float, float, float]]:
    """Disjoint x-slabs (x_lo, y_lo, x_hi) covering the 2-D dominated region."""
    stairs = _staircase_2d(pts2)
    xs = np.append(stairs[:, 0], ref2[0])
    return {(float(x), float(y), float(xs[i + 1])) for i, (x, y) in enumerate(stairs)}


def dominated_boxes(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Disjoint boxes (m, 2, d) whose union is the region dominated by ``values``.

    Each box is [lower, upper] with upper <= ref componentwise.  2-D uses the
    staircase directly.  3-D sweeps z-levels and extends each staircase slab
    across consecutive levels while it survives unchanged, so the box count
    stays near-linear in the number of points.
    """
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    d = ref.shape[0]
    pts = _filter_interior(values, ref)
    if pts.shape[0] == 0:
        return np.empty((0, 2, d))
    if d == 1:
        return np.array([[[pts.min()], [ref[0]]]])
    if d == 2:
        return np.array([[[x, y], [x_hi, ref[1]]] for x, y, x_hi in _staircase_rects(pts, ref)])
    if d == 3:
        order = np.argsort(pts[:, 2], kind="stable")
        pts = pts[order]
        z_levels = np.unique(pts[:, 2])
        open_rects: dict[tuple[float, float, float], float] = {}
        boxes: list[list[list[float]]] = []

        def close(rect, z_end):
            z_start = open_rects.pop(rect)
            x, y, x_hi = rect
            boxes.append([[x, y, z_start], [x_hi, ref[1], z_end]])

        for z in z_levels:
            rects = _staircase_rects(pts[pts[:, 2] <= z, :2], ref[:2])
            for rect in [r for r in open_rects if r not in rects]:
                close(rect, z)
            for rect in rects:
                open_rects.setdefault(rect, z)
        for rect in list(open_rects):
            close(rect, float(ref[2]))
        return np.array(boxes)
    raise ValueError(f"dominated_boxes supports 1-3 objectives, got {d}")


def _expected_shortfall(a: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """E[(a - s)+] for s ~ N(mean, std^2), elementwise; (a - mean)+ where std is 0."""
    diff = a - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / std
        smooth = diff * ndtr(z) + std * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return np.where(std > 0, smooth, np.maximum(diff, 0.0))


def hypervolume_improvements(
    front_values: np.ndarray,
    ref: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray | None = None,
) -> np.ndarray:
    """Expected hypervolume gain of adding s to a fixed front, per candidate row.

    s_j ~ N(means[i, j], stds[i, j]^2) independently; ``stds`` None or 0 gives
    the exact gain of the point ``means[i]``.  Over the disjoint boxes [l, u]
    of the dominated region, with h_j(a) = E[(a - s_j)+],
        EHVI = prod_j h_j(ref_j) - sum_boxes prod_j (h_j(u_j) - h_j(l_j)),
    as (u - max(l, s))+ = (u - s)+ - (l - s)+ (Yang, Emmerich, Deutz & Baeck 2019).
    """
    ref = np.asarray(ref, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    stds = np.broadcast_to(np.asarray(0.0 if stds is None else stds, dtype=float), means.shape)
    own = np.prod(_expected_shortfall(ref[None, :], means, stds), axis=1)
    boxes = dominated_boxes(front_values, ref)
    # Box corners take few distinct values per axis: evaluate h_j there, then gather.
    corners = []
    for j in range(ref.shape[0]):
        values, index = np.unique(boxes[:, :, j], return_inverse=True)
        corners.append((values, index.reshape(boxes.shape[0], 2)))
    out = np.empty(means.shape[0])
    # Chunk to bound the (chunk, boxes) intermediates.
    chunk = max(1, 2_000_000 // max(boxes.shape[0], 1))
    for start in range(0, means.shape[0], chunk):
        rows = slice(start, start + chunk)
        covered = 1.0
        for j, (values, index) in enumerate(corners):
            h = _expected_shortfall(values[None, :], means[rows, j : j + 1], stds[rows, j : j + 1])
            covered = covered * (h[:, index[:, 1]] - h[:, index[:, 0]])
        out[rows] = covered.sum(axis=1)
    return np.maximum(own - out, 0.0)
