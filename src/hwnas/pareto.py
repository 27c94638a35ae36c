"""Pareto dominance, non-dominated filtering, and exact hypervolume (1-3 objectives).

All objectives are minimized.  The non-dominated rows are found in one
lexicographic sweep over a (y, z) staircase, O(n log n) for up to three
objectives.  The region a point set dominates w.r.t. a reference point
``ref`` is the union of boxes [p, ref].  One z-sweep splits it into
disjoint boxes; the hypervolume is the sum of their volumes, and the
closed-form expected hypervolume improvement is a vectorized sum over them.

A search needs only the candidate with the largest improvement.  Each box
term is non-negative, so a candidate's own term minus its terms over some of
the boxes bounds its score from above; ``contenders`` walks the largest boxes
first and drops the rows whose bound falls below an exact score of another
row, with a slack (1e-9 of the own term) far above any rounding of the sums.
A row's score is computed elementwise and summed left to right over the
boxes, so scoring the remaining rows alone gives each the bits it has in the
whole pool: the first argmax, ties included, cannot change.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np
from scipy.special import ndtr

from .records import EvaluationRecord, ObjectiveVector, objective_matrix

# Elements per (candidates, boxes) intermediate of the EHVI, so that the few
# alive at once fit in a core's L2 cache.
_CHUNK_ELEMENTS = 20_000
# The pruning walk of `contenders`: boxes per group, rows scored over all the
# boxes after each group, the live-row count that ends the walk, and the
# slack on a row's upper bound, relative to its own score.
_PRUNE_GROUP = 16
_PRUNE_EXACT = 4
_PRUNE_STOP = 32
_PRUNE_SLACK = 1e-9

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def dominates(a: ObjectiveVector, b: ObjectiveVector, subset=None) -> bool:
    """True iff ``a`` is no worse than ``b`` everywhere on the subset and differs."""
    va = a.values(subset)
    vb = b.values(subset)
    return all(x <= y for x, y in zip(va, vb)) and va != vb


def non_dominated_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row (duplicates all kept).

    Rows are padded to three columns with zeros and visited in lexicographic
    order, so a row's dominators all come before it.  A staircase keeps the
    minimal (y, z) pairs of the rows seen so far, y ascending and z strictly
    descending; a row is dominated iff the stair with the largest y <= its y
    has z <= its z.  A surviving row enters the staircase and removes the
    contiguous run of stairs it covers.  A row equal to the one before it
    takes that row's verdict.  O(n log n) with one sort and one sweep (Kung,
    Luccio & Preparata 1975).  Supports 0-3 columns; infinities are ordinary
    values, a NaN is an error.
    """
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    if d > 3:
        raise ValueError(f"non-dominated filtering supports 0-3 objectives, got {d}")
    if np.isnan(values).any():
        raise ValueError("objective values must not be NaN")
    pts = np.hstack([values, np.zeros((n, 3 - d))])
    order = np.lexsort(pts.T[::-1])
    ys: list[float] = []
    zs: list[float] = []
    alive: list[bool] = []
    prev = None
    for row in pts[order].tolist():
        if row != prev:
            prev = row
            _, y, z = row
            i = bisect_right(ys, y)
            kept = not (i and zs[i - 1] <= z)
            if kept:
                lo = hi = bisect_left(ys, y, 0, i)
                while hi < len(zs) and zs[hi] >= z:
                    hi += 1
                ys[lo:hi], zs[lo:hi] = [y], [z]
        alive.append(kept)
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


def dominated_boxes(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Disjoint boxes (m, 2, d) whose union is the region dominated by ``values``.

    Each box is [lower, upper] with upper <= ref componentwise.  Points are
    padded to three axes (0 below a reference of 1) and swept by increasing
    z.  The (x, y) staircase of the points seen so far is kept x-sorted; each
    stair owns an open slab from its x to the next stair's x (or ref), from
    its y to ref, and from the z where the slab last changed.  A point that
    enters the staircase closes the slabs it changes at its z: the stairs it
    removes and its predecessor, whose right edge moves to the new x.  The
    open slabs are closed at ref at the end (Lacour, Klamroth & Fonseca 2017).
    """
    ref = np.asarray(ref, dtype=float)
    d = ref.shape[0]
    if not 1 <= d <= 3:
        raise ValueError(f"box decomposition supports 1-3 objectives, got {d}")
    pts = _filter_interior(values, ref)
    pts = np.hstack([pts, np.zeros((pts.shape[0], 3 - d))])
    ref_x, ref_y, ref_z = np.append(ref, np.ones(3 - d)).tolist()
    xs: list[float] = []
    ys: list[float] = []
    z_open: list[float] = []
    boxes: list[tuple] = []

    def close(i: int, z: float) -> None:
        if z > z_open[i]:
            x_hi = xs[i + 1] if i + 1 < len(xs) else ref_x
            boxes.append(((xs[i], ys[i], z_open[i]), (x_hi, ref_y, z)))

    for x, y, z in pts[np.lexsort((pts[:, 1], pts[:, 0], pts[:, 2]))].tolist():
        lo = bisect_left(xs, x)
        if lo < len(xs) and xs[lo] == x:
            # A stair at this x: unless it is no higher, it is replaced below,
            # and its predecessor's right edge stays at x.
            if ys[lo] <= y:
                continue
        elif lo and ys[lo - 1] <= y:
            continue  # covered by the stair to its left
        elif lo:
            close(lo - 1, z)  # the predecessor's right edge moves to x
            z_open[lo - 1] = z
        hi = lo
        while hi < len(xs) and ys[hi] >= y:
            close(hi, z)
            hi += 1
        xs[lo:hi], ys[lo:hi], z_open[lo:hi] = [x], [y], [z]
    for i in range(len(xs)):
        close(i, ref_z)
    return np.array(boxes).reshape(-1, 2, 3)[:, :, :d]


def hypervolume_values(values: np.ndarray, ref: np.ndarray) -> float:
    """Hypervolume of raw value rows w.r.t. ``ref``: the summed volume of the dominated boxes."""
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.ndim != 2 or values.shape[1] != ref.shape[0]:
        raise ValueError("values must be (n, d) matching the reference dimension")
    boxes = dominated_boxes(values, ref)
    return float(np.sum(np.prod(boxes[:, 1] - boxes[:, 0], axis=1)))


def _expected_shortfall(a: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """E[(a - s)+] for s ~ N(mean, std^2), elementwise; (a - mean)+ where std is 0.

    ``diff * ndtr(z) + std * exp(-0.5 * z * z) / sqrt(2 pi)`` with
    ``diff = a - mean`` and ``z = diff / std``, evaluated in place in that
    order (so to the same bits) in three arrays of the broadcast shape.
    """
    diff = a - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / std
        out = ndtr(z)
        out *= diff
        tail = np.multiply(-0.5, z, out=diff)
        tail *= z
        np.exp(tail, out=tail)
        tail *= std
        tail /= _SQRT_2PI
        out += tail
    positive = std > 0
    if not positive.all():
        np.copyto(out, np.maximum(a - mean, 0.0), where=~positive)
    return out


def _candidates(ref, means, stds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ref`` as floats, ``means`` as (rows, d) floats, ``stds`` broadcast to them (None is 0)."""
    ref = np.asarray(ref, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    stds = np.broadcast_to(np.asarray(0.0 if stds is None else stds, dtype=float), means.shape)
    return ref, means, stds


def _own(ref: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """prod_j h_j(ref_j) per row: the score before any box is subtracted."""
    return np.prod(_expected_shortfall(ref[None, :], means, stds), axis=1)


def _box_corners(boxes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis: the distinct corner values of ``boxes`` and each box's (lower, upper) index into them."""
    corners = []
    for j in range(boxes.shape[2]):
        values, index = np.unique(boxes[:, :, j], return_inverse=True)
        corners.append((values, index.reshape(boxes.shape[0], 2)))
    return corners


def _covered(corners: list, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """(rows, boxes): the expected volume of each box a candidate covers, prod_j (h_j(u_j) - h_j(l_j))."""
    covered = 1.0
    for j, (values, index) in enumerate(corners):
        h = _expected_shortfall(values[None, :], means[:, j : j + 1], stds[:, j : j + 1])
        covered = covered * (h[:, index[:, 1]] - h[:, index[:, 0]])
    return covered


def _row_chunks(rows: np.ndarray, width: int):
    """``rows`` in slices of at most ``_CHUNK_ELEMENTS // width`` (at least one row each)."""
    step = max(1, _CHUNK_ELEMENTS // max(width, 1))
    return (rows[start : start + step] for start in range(0, len(rows), step))


def _improvements(own: np.ndarray, corners: list, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """``own`` minus each row's covered sum over all the boxes of ``corners``, floored at 0."""
    out = np.empty(means.shape[0])
    for rows in _row_chunks(np.arange(means.shape[0]), corners[0][1].shape[0]):
        # A left-to-right scan over the boxes, whatever the chunk's row count:
        # sum() would add a one-row chunk pairwise and the others in order.
        out[rows] = np.add.accumulate(_covered(corners, means[rows], stds[rows]), axis=1)[:, -1]
    return np.maximum(own - out, 0.0)


def hypervolume_improvements(
    front_values: np.ndarray,
    ref: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray | None = None,
    *,
    boxes: np.ndarray | None = None,
) -> np.ndarray:
    """Expected hypervolume gain of adding s to a fixed front, per candidate row.

    s_j ~ N(means[i, j], stds[i, j]^2) independently; ``stds`` None or 0 gives
    the exact gain of the point ``means[i]``.  Over the disjoint boxes [l, u]
    of the dominated region, with h_j(a) = E[(a - s_j)+],
        EHVI = prod_j h_j(ref_j) - sum_boxes prod_j (h_j(u_j) - h_j(l_j)),
    as (u - max(l, s))+ = (u - s)+ - (l - s)+ (Yang, Emmerich, Deutz & Baeck 2019).
    Box corners take few distinct values per axis, so h_j is evaluated there
    and gathered.  A row's score does not depend on the other rows.
    ``boxes``, when given, must be ``dominated_boxes(front_values, ref)``, as
    ``contenders`` returns them; they are then not built again.
    """
    ref, means, stds = _candidates(ref, means, stds)
    own = _own(ref, means, stds)
    if boxes is None:
        boxes = dominated_boxes(front_values, ref)
    if not boxes.shape[0]:
        return own
    return _improvements(own, _box_corners(boxes), means, stds)


def contenders(
    front_values: np.ndarray,
    ref: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending rows of ``means`` that may hold the largest hypervolume improvement, and the boxes.

    The boxes are ``dominated_boxes(front_values, ref)``, returned so that
    scoring the rows with ``hypervolume_improvements(..., boxes=boxes)``
    builds them once.

    Every box term is non-negative, so ``own`` minus a row's covered sum over
    some of the boxes bounds its score from above.  The boxes are walked in
    groups of ``_PRUNE_GROUP``, largest volume first.  After each group the
    ``_PRUNE_EXACT`` live rows with the highest bounds are scored over all the
    boxes; the best such score is a lower bound on the maximum.  A row is
    dropped once its bound plus ``_PRUNE_SLACK * own`` is below that best: the
    slack exceeds the rounding of any summation order by orders of magnitude,
    so a dropped row's computed score is strictly below a kept row's.  Every
    row whose score equals the maximum is kept, and scores do not depend on
    which other rows are scored, so the first argmax of
    ``hypervolume_improvements`` over the contenders is the first argmax over
    all the rows, to the bit.  The walk stops at ``_PRUNE_STOP`` live rows.
    All rows are kept when there are few rows, one group of boxes or fewer,
    a non-finite input, or a best score of 0, which rules out no row.
    """
    ref, means, stds = _candidates(ref, means, stds)
    everyone = np.arange(means.shape[0])
    boxes = dominated_boxes(front_values, ref)
    if len(everyone) <= _PRUNE_STOP or not (np.isfinite(means).all() and np.isfinite(stds).all()):
        return everyone, boxes
    own = _own(ref, means, stds)
    if boxes.shape[0] <= _PRUNE_GROUP or not np.isfinite(own).all():
        return everyone, boxes
    corners = _box_corners(boxes)
    slack = _PRUNE_SLACK * own
    bound = own.copy()
    scored = np.zeros(len(everyone), dtype=bool)
    best = -np.inf
    live = everyone
    order = np.argsort(-np.prod(boxes[:, 1] - boxes[:, 0], axis=1), kind="stable")
    for start in range(0, len(order), _PRUNE_GROUP):
        group = _box_corners(boxes[order[start : start + _PRUNE_GROUP]])
        # A group's boxes have at most twice as many corner values per axis.
        for rows in _row_chunks(live, 2 * _PRUNE_GROUP):
            bound[rows] -= _covered(group, means[rows], stds[rows]).sum(axis=1)
        unscored = live[~scored[live]]
        top = unscored[np.argsort(-bound[unscored], kind="stable")[:_PRUNE_EXACT]]
        scored[top] = True
        best = np.max(_improvements(own[top], corners, means[top], stds[top]), initial=best)
        if best <= 0:
            return everyone, boxes
        live = live[bound[live] + slack[live] >= best]
        if len(live) <= _PRUNE_STOP:
            break
    return live, boxes
