"""Gaussian-process regression surrogate over one-hot genome features.

One GP is fit per objective.  The kernel is squared-exponential with a single
shared lengthscale over a one-hot expansion of the encoded genome.  On those
features the squared distance of two genomes is twice the Hamming distance of
their encodings and takes at most ``4 * nb + 1`` values, so covariances are
built from a (unique values, index) distance table: each model exponentiates
the unique values and gathers them.  The search loop builds both of its
tables from the integer codes it already holds (:func:`hamming_table`), never
from features: one of the training rows, shared by the objectives' fits, and
one of the candidate pool against them, shared by the posteriors
(:meth:`GPModel.predict_table`); :meth:`GPModel.predict_features` is the same
posterior for any real-valued feature rows.  Hyperparameters maximize the log
marginal likelihood: nine seeded starts are probed, and one bounded Powell
search (Powell 1964) with Brent's bounded line search (Brent 1973) runs from
the best of them for at most 30 evaluations.  The search is implemented in
this module as SciPy 1.17's ``minimize(method="Powell", bounds=...)`` does
it, so it does not depend on the installed SciPy.  Within one fit each
hyperparameter vector is factored once; a repeat is a lookup.

Each likelihood evaluation does only the work its bits depend on.  The
search's points are float tuples, each coordinate computed with the IEEE
operations NumPy would apply to SciPy's arrays, in the same order.  A fit
prepares its training table once (:class:`_Gram`): the negated distances,
and an index whose diagonal has a class of its own, so that one gather gives
K + (noise + jitter) I with the bits of adding noise and jitter to the
gathered diagonal in place.  The posterior's triangular solve calls LAPACK
``trtrs`` directly, the call ``scipy.linalg.solve_triangular`` makes for a
column-major factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isnan, sqrt
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .search_space import FIELDS_PER_BLOCK, CellGenome, encode, radices

# log(2 pi) of the likelihood's normalizing term, as np.log gives it.
_LOG_2PI = float(np.log(2.0 * np.pi))

# Jitter ladder tried when the covariance factorization fails.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

# log-space hyperparameter bounds: lengthscale, signal variance, noise variance.
DEFAULT_BOUNDS = ((0.1, 100.0), (0.01, 10.0), (1e-6, 1.0))
_LOG_BOUNDS = np.log(np.asarray(DEFAULT_BOUNDS, dtype=float))

# Hyperparameter search: random starts (plus one heuristic start) are probed,
# then one bounded Powell search runs from the best, stopped after _MAXFEV
# evaluations.  The search's first evaluation is that probe, which the fit
# looks up rather than factors again, so a fit factors the covariance at most
# _N_STARTS + 1 + _MAXFEV - 1 times, and once more for the fitted model.
_N_STARTS = 8
_MAXFEV = 30
_XTOL = 1e-3
_FTOL = 1e-4


class GPError(RuntimeError):
    """Numerical failure or misuse of the GP surrogate."""


def feature_dim(num_blocks: int) -> int:
    return int(radices(num_blocks).sum())


def _field_offsets(num_blocks: int) -> np.ndarray:
    """First feature column of each encoded position."""
    widths = radices(num_blocks)
    return np.cumsum(widths) - widths


def featurize_codes(codes: np.ndarray) -> np.ndarray:
    """One-hot rows of a (k, 4 nb) matrix of valid encoded genomes; exactly one 1 per field.

    Layout is block-major: per block, input1 over its legal set, input2,
    then the two operation fields over the 8 codes.  5 blocks give 120 dims.
    """
    codes = np.atleast_2d(codes)
    num_blocks = codes.shape[1] // FIELDS_PER_BLOCK
    out = np.zeros((codes.shape[0], feature_dim(num_blocks)))
    np.put_along_axis(out, _field_offsets(num_blocks) + codes, 1.0, axis=1)
    return out


def featurize_batch(genomes: list[CellGenome]) -> np.ndarray:
    if not genomes:
        raise ValueError("no genomes to featurize")
    nb = genomes[0].num_blocks
    if any(g.num_blocks != nb for g in genomes):
        raise ValueError("all genomes in a batch must have the same block count")
    return featurize_codes(np.array([encode(g) for g in genomes]))


@dataclass(frozen=True)
class KernelParams:
    lengthscale: float
    signal_variance: float
    noise_variance: float

    def __post_init__(self) -> None:
        if self.lengthscale <= 0 or self.signal_variance <= 0:
            raise ValueError("lengthscale and signal_variance must be positive")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be non-negative")


# LAPACK Cholesky factorization, Cholesky solve and triangular solve for float64, fetched once.
_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64)


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix (LAPACK ``potrf``).

    Only the lower triangle of ``a`` is read.  A column-major float64 ``a`` is
    factored in place and overwritten, also when the factorization fails;
    any other ``a`` is copied first and left unchanged.  The factor comes
    back column-major with its upper triangle zeroed.  Raises
    ``np.linalg.LinAlgError`` when ``a`` is not positive definite.
    """
    L, info = _potrf(a, 1, 1, 1)  # lower, clean, overwrite_a: keyword arguments cost more
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    return L


def _table(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, inverse = np.unique(sq, return_inverse=True)
    return uniq, inverse.reshape(sq.shape)


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of the rows of ``A`` to the rows of ``B``.

    Summed one feature at a time from zero, the order in which SciPy's
    ``cdist(A, B, "sqeuclidean")`` sums, so the bits are its bits.
    """
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"feature count mismatch: {A.shape[1]} vs {B.shape[1]}")
    out = np.zeros((A.shape[0], B.shape[0]))
    term = np.empty_like(out)
    for a, b in zip(A.T, B.T):
        np.subtract(a[:, None], b, out=term)
        term *= term
        out += term
    return out


def distance_table(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise squared distances of ``X`` as (unique values, (n, n) index into them).

    One-hot features take few distinct pairwise distances, so a covariance is
    built by exponentiating the unique values and gathering them, not by
    exponentiating all n^2 entries.
    """
    return _table(_squared_distances(X, X))


def hamming_table(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared feature distances of encoded genomes ``A`` to ``B`` as (unique values, index).

    Equal to ``np.unique(_squared_distances(featurize_codes(A),
    featurize_codes(B)), return_inverse=True)``, index dtype (``intp``) included,
    since on one-hot features that distance is twice the Hamming distance of
    the codes; ``hamming_table(codes, codes)`` is ``distance_table`` of their
    features.  The mismatches are counted one field at a time, so no
    (len(A), len(B), fields) array is built.
    """
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    fields = A.shape[1]
    if B.shape[1] != fields:
        raise ValueError(f"code length mismatch: {fields} vs {B.shape[1]}")
    if min(A.min(initial=0), B.min(initial=0)) < 0:
        raise ValueError("codes must be non-negative")
    # Equality survives the cast to the narrowest type that holds the codes,
    # and narrow contiguous columns compare several times faster.
    width = np.min_scalar_type(max(A.max(initial=0), B.max(initial=0)))
    hamming = np.zeros((A.shape[0], B.shape[0]), dtype=np.min_scalar_type(fields))
    differs = np.empty(hamming.shape, dtype=bool)
    for a, b in zip(A.T.astype(width, order="C"), B.T.astype(width, order="C")):
        np.not_equal(a[:, None], b, out=differs)
        hamming += differs
    present = np.bincount(hamming.ravel(), minlength=fields + 1) > 0
    # An intp index, as np.unique gives: gathers through it are faster than through uint8.
    rank = np.cumsum(present, dtype=np.intp) - 1
    return 2.0 * np.flatnonzero(present), rank[hamming]


class _Gram(NamedTuple):
    """A training distance table as the likelihood evaluations read it, built once per table.

    ``index`` is the table's index with its diagonal moved to a class of its
    own, the last; ``neg_distances`` holds the negated unique distances and,
    last, the diagonal's distance again.  Exponentiated, the last value is a
    copy of the diagonal's covariance, to which the noise and jitter are
    added, so one gather gives K + (noise + jitter) I.  A duplicate row's
    off-diagonal entries keep the class without noise.
    """

    neg_distances: np.ndarray
    index: np.ndarray


def _gram(table: tuple[np.ndarray, np.ndarray]) -> _Gram:
    """The :class:`_Gram` of a square ``table`` (unique values, index); a ``_Gram`` is returned as is."""
    if isinstance(table, _Gram):
        return table
    uniq, inverse = table
    diagonal = inverse.diagonal()
    # Every row is at distance 0 from itself unless a feature is not finite.
    if (diagonal != diagonal[0]).any():
        raise ValueError("the distance table's diagonal must be one value")
    index = inverse.copy()
    index.flat[:: index.shape[0] + 1] = uniq.size
    return _Gram(np.append(-uniq, -uniq[diagonal[0]]), index)


def _factor(
    gram: _Gram, y: np.ndarray, lengthscale: float, signal: float, noise: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """(L, alpha, jitter) with L L^T = K + (noise + jitter) I and alpha = (L L^T)^-1 y.

    The first ``_JITTERS`` entry that makes the covariance factorizable wins.
    ``potrf`` factors the covariance in place, so each retry sets the
    diagonal's class to its covariance plus ``noise``, then its jitter, and
    gathers the covariance again.
    """
    neg_distances, index = gram
    values = signal * np.exp(neg_distances / (2.0 * lengthscale**2))
    noisy = values[-1] + noise
    for jitter in _JITTERS:
        values[-1] = noisy + jitter if jitter else noisy
        try:
            # The covariance is symmetric, so its transpose is the same matrix
            # in the column-major order that lets potrf skip a copy.
            L = cholesky(values[index].T)
        except np.linalg.LinAlgError:
            continue
        alpha, _ = _potrs(L, y, 1)  # lower
        return L, alpha, jitter
    raise GPError("covariance not positive definite after maximum jitter 1e-6")


def _neg_lml(L: np.ndarray, alpha: np.ndarray, half_y: np.ndarray, log_2pi_term: float) -> float:
    """The negative log marginal likelihood from a factorization; ``half_y`` is ``0.5 * y``."""
    return float(half_y.dot(alpha)) + float(np.add.reduce(np.log(L.diagonal()))) + log_2pi_term


def log_marginal_likelihood(params: KernelParams, X: np.ndarray, y: np.ndarray) -> float:
    """-1/2 y^T (K+s2 I)^-1 y - 1/2 log det(K+s2 I) - n/2 log(2 pi)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0] or y.shape[0] < 1:
        raise ValueError("X and y must agree and be non-empty")
    L, alpha, _ = _factor(
        _gram(distance_table(X)), y, params.lengthscale, params.signal_variance, params.noise_variance
    )
    return -_neg_lml(L, alpha, 0.5 * y, 0.5 * y.shape[0] * _LOG_2PI)


def _median(ascending: list[float]) -> float:
    """``np.median`` of ascending values, bit for bit: the middle one, or the mean of the middle two."""
    half = len(ascending) // 2
    return ascending[half] if len(ascending) % 2 else (ascending[half - 1] + ascending[half]) / 2


def _standardization(y_raw: np.ndarray) -> tuple[float, float]:
    """(mean, std) that standardize the targets ``y_raw``."""
    std = float(np.std(y_raw))
    # Constant targets degenerate to std 0; clamp so the model stays defined.
    return float(np.mean(y_raw)), std if std > 1e-12 else 1.0


class GPModel:
    """Fitted GP: training features, standardized targets, cached Cholesky factor."""

    def __init__(
        self,
        X: np.ndarray,
        y_raw: np.ndarray,
        params: KernelParams,
        standardize: bool = True,
        table: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        """``table`` is ``distance_table(X)`` (or its ``_Gram``) when the caller already has it."""
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        y_raw = np.asarray(y_raw, dtype=float).ravel()
        if self.X.shape[0] != y_raw.shape[0] or y_raw.shape[0] < 1:
            raise ValueError("X and y must agree and be non-empty")
        self.y_raw = y_raw
        self.target_mean, self.target_std = _standardization(y_raw) if standardize else (0.0, 1.0)
        self.y = (y_raw - self.target_mean) / self.target_std

        if table is None:
            table = distance_table(self.X)
        self.L, self.alpha, jitter = _factor(
            _gram(table), self.y, params.lengthscale, params.signal_variance, params.noise_variance
        )
        # Fold any jitter into the stored noise so L L^T reproduces K + noise*I.
        self.params = KernelParams(
            params.lengthscale, params.signal_variance, params.noise_variance + jitter
        )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def predict_table(self, table: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (de-standardized, variance clamped at 0).

        ``table`` holds the squared distances of the m test rows to the n
        training rows as (unique values, (m, n) index), as
        :func:`hamming_table` gives; the objectives share one table.
        """
        uniq, index = table
        p = self.params
        k_star = (p.signal_variance * np.exp(-uniq / (2.0 * p.lengthscale**2)))[index]
        mean = k_star @ self.alpha
        # k_star is not needed after the mean, so the solve may overwrite it:
        # L and k_star.T are column-major, so trtrs copies neither.
        v, info = _trtrs(self.L, k_star.T, lower=1, overwrite_b=1)
        if info:
            raise GPError(f"triangular solve failed (info {info})")
        var = self.params.signal_variance - np.sum(v**2, axis=0)
        var = np.maximum(var, 0.0)
        return (
            self.target_mean + self.target_std * mean,
            self.target_std**2 * var,
        )

    def predict_features(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at the feature rows ``F`` (see :meth:`predict_table`)."""
        F = np.atleast_2d(np.asarray(F, dtype=float))
        return self.predict_table(_table(_squared_distances(F, self.X)))


class _OutOfEvaluations(Exception):
    """The evaluation budget ran out; the line search under way is dropped."""


# A point or direction of the hyperparameter search: one float per coordinate.
_Point = tuple[float, ...]


def _moved(x: _Point, step: float, direction: _Point) -> _Point:
    """``x + step * direction``, one coordinate at a time: NumPy's bits for the same arrays."""
    return tuple([xi + step * di for xi, di in zip(x, direction)])


def _line_bounds(x: _Point, direction: _Point, lower: _Point, upper: _Point) -> tuple[float, float]:
    """Step range ``(lmin, lmax)`` keeping ``x + l * direction`` in the box (``_line_for_search``).

    Coordinates the direction does not move are skipped; an empty range
    (``x`` outside the box) gives ``(0, 0)``.
    """
    lows, highs = [], []
    for xi, di, lo, hi in zip(x, direction, lower, upper):
        if di:
            low = (lo - xi) / di
            high = (hi - xi) / di
            lows.append(low if di > 0 else high)
            highs.append(high if di > 0 else low)
    lmin, lmax = max(lows), min(highs)
    return (lmin, lmax) if lmax >= lmin else (0, 0)


_GOLDEN_MEAN = 0.5 * (3.0 - sqrt(5.0))
_SQRT_EPS = sqrt(2.2e-16)


def _bounded_brent(f, a: float, b: float) -> tuple[float, float]:
    """Minimize ``f`` on ``[a, b]`` by Brent's bounded search (``_minimize_scalar_bounded``).

    Returns ``(x, f(x))`` of the best point seen.  The absolute tolerance is
    ``_XTOL``: Powell gives its line searches ``100 * xtol``, and they give
    Brent a hundredth of that.  SciPy's 500-evaluation cap is left out: the
    outer ``_MAXFEV`` budget is far below it.
    """
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XTOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Parabola through the three best points.
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = f(x)
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XTOL / 3.0
        tol2 = 2.0 * tol1
    return xf, fx


def _line_search(f, x: _Point, direction: _Point, fval: float, lower: _Point, upper: _Point):
    """(f, point, step) of the bounded line minimum of ``f`` from ``x`` along ``direction``.

    ``_linesearch_powell`` with finite bounds: the box is finite, so the step
    range is too.  A zero direction returns ``x`` and ``fval``.
    """
    if not any(direction):
        return fval, x, direction
    lmin, lmax = _line_bounds(x, direction, lower, upper)
    alpha, fmin = _bounded_brent(lambda a: f(_moved(x, a, direction)), lmin, lmax)
    step = tuple(alpha * di for di in direction)
    return fmin, tuple(xi + si for xi, si in zip(x, step)), step


def _powell(
    func, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, float]:
    """Bounded Powell minimization of ``func`` from ``x0`` in the box: ``(x, func(x))``.

    Operation for operation SciPy 1.17's ``minimize(func, x0, method="Powell",
    bounds=..., options={"maxfev": _MAXFEV, "xtol": _XTOL, "ftol": _FTOL})``
    (``_minimize_powell``, whose helpers are named in the functions above),
    so it evaluates the same points and returns the same result.  Once
    ``_MAXFEV`` evaluations are spent, the line search under way is dropped
    and the point before it is returned.  Points are float tuples: ``func``
    is called with one, and each coordinate goes through the IEEE
    operations NumPy would apply to SciPy's arrays, in the same order.
    """
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= _MAXFEV:
            raise _OutOfEvaluations
        calls += 1
        return func(x)

    lower, upper = tuple(lower.tolist()), tuple(upper.tolist())
    x = tuple(np.asarray(x0, dtype=float).tolist())
    directions = [tuple(row) for row in np.eye(len(x)).tolist()]
    fval = f(x)
    x1 = x
    try:
        while True:
            fx = fval
            bigind = 0
            delta = 0.0
            for i in range(len(x)):
                fx2 = fval
                fval, x, _ = _line_search(f, x, directions[i], fval, lower, upper)
                if (fx2 - fval) > delta:
                    delta = fx2 - fval
                    bigind = i
            if 2.0 * (fx - fval) <= _FTOL * (abs(fx) + abs(fval)) + 1e-20:
                break
            if calls >= _MAXFEV or (isnan(fx) and isnan(fval)):
                break
            # Extrapolate along this sweep's net move, kept inside the box.
            direction = tuple(xi - x1i for xi, x1i in zip(x, x1))
            x1 = x
            _, lmax = _line_bounds(x, direction, lower, upper)
            fx2 = f(_moved(x, min(lmax, 1), direction))
            if fx > fx2:
                t = 2.0 * (fx + fx2 - 2.0 * fval)
                temp = fx - fval - delta
                t *= temp * temp
                temp = fx - fx2
                t -= delta * temp * temp
                if t < 0.0:
                    fval, x, direction = _line_search(f, x, direction, fval, lower, upper)
                    if any(direction):
                        directions[bigind] = directions[-1]
                        directions[-1] = direction
    except _OutOfEvaluations:
        pass
    return np.array(x), fval


def _memoize(func):
    """``func`` with each value kept by its argument's coordinates, ``inf`` included.

    Powell's first evaluation is the probe it starts from, and its line
    searches now and then return to a point; within one fit these are
    lookups, not factorizations.  The key is the point as a tuple, so an
    array and a tuple of the same floats share it, as do -0.0 and 0.0,
    which ``np.exp`` maps to the same hyperparameter.
    """
    values: dict[_Point, float] = {}

    def memoized(theta) -> float:
        key = tuple(theta)
        value = values.get(key)
        if value is None:
            value = values[key] = func(theta)
        return value

    return memoized


def fit(
    X: np.ndarray,
    y_raw: np.ndarray,
    seed=0,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> GPModel:
    """Standardize targets and pick hyperparameters by maximum marginal likelihood.

    Starting points are ``_N_STARTS`` log-uniform draws over ``DEFAULT_BOUNDS``
    from ``seed`` plus one median-distance heuristic; all are probed, and one
    in-module bounded Powell search (:func:`_powell`) runs from the one with
    the lowest negative log marginal likelihood.  Values are kept for the
    length of the fit (:func:`_memoize`), so no hyperparameter vector is
    factored twice.  Deterministic for a fixed seed.  ``table`` is
    ``distance_table(X)``, passed by callers that fit several targets on the
    same ``X``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y_raw = np.asarray(y_raw, dtype=float).ravel()
    if y_raw.shape[0] < 2:
        raise GPError("fit requires at least 2 observations")

    mean, std = _standardization(y_raw)
    y = (y_raw - mean) / std
    if table is None:
        table = distance_table(X)
    gram = _gram(table)
    half_y = 0.5 * y
    log_2pi_term = 0.5 * y.shape[0] * _LOG_2PI

    @_memoize
    def neg_lml(theta: _Point) -> float:
        try:
            L, alpha, _ = _factor(gram, y, *np.exp(theta).tolist())
        except GPError:
            return np.inf
        return _neg_lml(L, alpha, half_y, log_2pi_term)

    lower, upper = _LOG_BOUNDS.T
    rng = np.random.default_rng(seed)
    starts = rng.uniform(lower, upper, size=(_N_STARTS, 3))
    # Plus one heuristic start: median-distance lengthscale, unit signal.
    uniq = table[0]
    positive = uniq[uniq > 0].tolist()
    med = sqrt(_median(positive)) if positive else 1.0
    (lo, hi), _, _ = DEFAULT_BOUNDS
    heuristic = np.log([min(max(med, lo), hi), 1.0, 1e-2])
    starts = np.vstack([heuristic, starts])
    # Probe all starts, run the local search only from the most promising one.
    probes = np.array([neg_lml(theta0) for theta0 in starts])
    theta, val = _powell(neg_lml, starts[np.argsort(probes)[0]], lower, upper)
    if not isfinite(val):
        raise GPError("hyperparameter search failed for all starts")
    return GPModel(X, y_raw, KernelParams(*np.exp(theta)), standardize=True, table=gram)
