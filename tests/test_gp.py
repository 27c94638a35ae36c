import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import hwnas
from hwnas import gp
from hwnas.gp import (
    _FTOL,
    _JITTERS,
    _LOG_BOUNDS,
    _MAXFEV,
    _N_STARTS,
    _XTOL,
    _factor,
    _gram,
    _median,
    _powell,
    _squared_distances,
    GPError,
    GPModel,
    KernelParams,
    cholesky,
    distance_table,
    feature_dim,
    featurize_batch,
    featurize_codes,
    fit,
    hamming_table,
    log_marginal_likelihood,
)
from hwnas.search_space import Operation, decode, encode, random_codes, random_genome

from test_search_space import all_identity_genome


def kernel_matrix(A, B, params):
    """Reference squared-exponential covariance of the rows of ``A`` and ``B``, through SciPy's ``cdist``."""
    sq = cdist(np.atleast_2d(A), np.atleast_2d(B), metric="sqeuclidean")
    return params.signal_variance * np.exp(-sq / (2.0 * params.lengthscale**2))


def lml_dense_oracle(params, X, y):
    """Dense-inverse reference for the log marginal likelihood."""
    X = np.atleast_2d(X)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    K = kernel_matrix(X, X, params) + params.noise_variance * np.eye(n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(K) @ y - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi))


def scipy_reference(params, X, y):
    """(L, alpha, jitter, negative LML) from scipy's cholesky/cho_solve over the full matrix.

    The jitter ladder is the one the kernel must keep: add each jitter in
    turn to the diagonal of the noisy covariance until it factorizes.
    """
    n = y.shape[0]
    sq = cdist(X, X, metric="sqeuclidean")
    cov = params.signal_variance * np.exp(-sq / (2.0 * params.lengthscale**2))
    cov[np.diag_indices_from(cov)] += params.noise_variance
    for jitter in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        try:
            L = scipy.linalg.cholesky(cov + jitter * np.eye(n), lower=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            continue
    alpha = scipy.linalg.cho_solve((L, True), y, check_finite=False)
    neg = float(0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * np.log(2.0 * np.pi))
    return L, alpha, jitter, neg


class TestFeaturize:
    def test_dimension_is_120_for_five_blocks(self):
        assert feature_dim(5) == 120
        assert featurize_batch([all_identity_genome()])[0].shape == (120,)

    def test_exactly_twenty_ones(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = featurize_batch([random_genome(rng)])[0]
            assert set(np.unique(f)) <= {0.0, 1.0}
            assert f.sum() == 20

    def test_identical_genomes_identical_features(self):
        g = random_genome(np.random.default_rng(1))
        assert np.array_equal(featurize_batch([g])[0], featurize_batch([decode(encode(g))])[0])

    def test_one_op_swap_squared_distance_two(self):
        g = all_identity_genome()
        vec = list(encode(g))
        vec[2] = int(Operation.CONV7X7)
        g2 = decode(vec)
        d2 = np.sum((featurize_batch([g])[0] - featurize_batch([g2])[0]) ** 2)
        assert d2 == 2.0

    def test_injective_on_one_block_space(self):
        from hwnas.search_space import enumerate_genomes

        feats = {tuple(f) for f in featurize_batch(list(enumerate_genomes(1)))}
        assert len(feats) == 256


class TestKernel:
    def test_self_covariance_is_signal(self):
        a = featurize_batch([all_identity_genome()])
        p = KernelParams(1.0, 1.0, 0.0)
        assert kernel_matrix(a, a, p)[0, 0] == pytest.approx(1.0)

    def test_distance_two_unit_lengthscale(self):
        p = KernelParams(1.0, 1.0, 0.0)
        a = np.zeros(4)
        b = np.array([1.0, 1.0, 0.0, 0.0])
        assert kernel_matrix(a, b, p)[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        p = KernelParams(2.0, 1.5, 0.0)
        A, B = rng.normal(size=(2, 20, 7))
        assert np.allclose(kernel_matrix(A, B, p), kernel_matrix(B, A, p).T, rtol=1e-12, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _squared_distances(np.zeros((1, 3)), np.zeros((1, 4)))
        model = GPModel(np.zeros((2, 3)), np.array([0.0, 1.0]), KernelParams(1, 1, 0.1))
        with pytest.raises(ValueError):
            model.predict_features(np.zeros((1, 4)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        m=st.integers(0, 12),
        n=st.integers(0, 12),
        d=st.integers(1, 139),
        log_scale=st.integers(-8, 8),
        one_hot=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_squared_distances_are_the_cdist_bits(self, m, n, d, log_scale, one_hot, seed):
        rng = np.random.default_rng(seed)
        if one_hot:
            A, B = (rng.integers(0, 2, size=(k, d)).astype(float) for k in (m, n))
        else:
            A, B = (rng.normal(size=(k, d)) * 10.0**log_scale for k in (m, n))
        B[: min(m, n) // 2] = A[: min(m, n) // 2]
        got = _squared_distances(A, B)
        assert got.shape == (m, n)
        assert got.tobytes() == cdist(A, B, "sqeuclidean").tobytes()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            KernelParams(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, 1.0, -1e-9)


class TestLogMarginalLikelihood:
    def test_unit_variance_single_point(self):
        p = KernelParams(1.0, 0.5, 0.5)  # k(x,x) + noise = 1
        got = log_marginal_likelihood(p, np.zeros((1, 3)), np.array([0.0]))
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_single_point_closed_form(self):
        for v in (0.25, 1.0, 4.0):
            p = KernelParams(1.0, v / 2, v / 2)
            got = log_marginal_likelihood(p, np.zeros((1, 2)), np.array([0.0]))
            assert got == pytest.approx(-0.5 * np.log(v) - 0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for n in range(1, 11):
            X = rng.normal(size=(n, 5))
            y = rng.normal(size=n)
            p = KernelParams(1.7, 0.8, 0.3)
            assert log_marginal_likelihood(p, X, y) == pytest.approx(
                lml_dense_oracle(p, X, y), abs=1e-6
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        lengthscale=st.floats(0.3, 10.0),
        signal=st.floats(0.1, 5.0),
        noise=st.floats(1e-2, 1.0),
    )
    def test_matches_dense_oracle_property(self, n, d, seed, lengthscale, signal, noise):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        p = KernelParams(lengthscale, signal, noise)
        assert log_marginal_likelihood(p, X, y) == pytest.approx(lml_dense_oracle(p, X, y), abs=1e-6)


class TestKernelEquivalence:
    """The LAPACK kernel reproduces scipy's cholesky/cho_solve path bit for bit."""

    CASES = {
        "normal": (np.random.default_rng(11).normal(size=(15, 4)), KernelParams(1.7, 0.8, 0.3)),
        "one_hot": (
            featurize_batch([random_genome(np.random.default_rng(12), 2) for _ in range(40)]),
            KernelParams(1.3, 2.0, 1e-3),
        ),
        # Identical rows and zero noise: singular until the ladder adds jitter;
        # a large signal makes rounding outgrow the first rungs.
        "duplicates": (np.zeros((8, 3)), KernelParams(2.0, 1.0, 0.0)),
        "duplicates_large_signal": (np.zeros((8, 3)), KernelParams(2.0, 1e7, 0.0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_scipy(self, case):
        X, p = self.CASES[case]
        y = np.random.default_rng(14).normal(size=X.shape[0])
        L, alpha, jitter, neg = scipy_reference(p, X, y)
        assert -log_marginal_likelihood(p, X, y) == neg
        m = GPModel(X, y, p, standardize=False)
        assert np.array_equal(m.L, L)
        assert np.array_equal(m.alpha, alpha)
        assert m.params.noise_variance == p.noise_variance + jitter

    def test_duplicates_climb_the_jitter_ladder(self):
        jitters = [
            scipy_reference(p, X, np.ones(X.shape[0]))[2]
            for X, p in (self.CASES["duplicates"], self.CASES["duplicates_large_signal"])
        ]
        assert jitters == [1e-10, 1e-8]

    def test_cholesky_raises_on_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPosterior:
    def test_one_point_closed_form(self):
        # k* = 0.5, noiseless unit-signal prior, y = 1.
        lengthscale = float(np.sqrt(-1.0 / np.log(0.5)))  # exp(-1/l^2) = 0.5 at d^2 = 2
        p = KernelParams(lengthscale, 1.0, 0.0)
        x1 = np.zeros(4)
        x_star = np.array([1.0, 1.0, 0.0, 0.0])
        m = GPModel(x1[None, :], np.array([1.0]), p, standardize=False)
        mean, var = m.predict_features(x_star[None, :])
        assert mean[0] == pytest.approx(0.5, abs=1e-9)
        assert var[0] == pytest.approx(0.75, abs=1e-9)

    def test_interpolates_training_points(self):
        rng = np.random.default_rng(4)
        genomes = [random_genome(rng) for _ in range(12)]
        X = featurize_batch(genomes)
        y = rng.normal(size=12)
        m = GPModel(X, y, KernelParams(2.0, 1.0, 1e-6))
        mean, var = m.predict_features(X)
        assert np.max(np.abs(mean - y)) < 1e-3
        assert np.max(var) < 1e-3

    def test_prior_reversion_far_away(self):
        p = KernelParams(0.2, 1.3, 0.0)
        X = np.zeros((1, 3))
        m = GPModel(X, np.array([5.0]), p, standardize=False)
        far = 100.0 * np.ones((1, 3))
        mean, var = m.predict_features(far)
        assert mean[0] == pytest.approx(0.0, abs=1e-9)
        assert var[0] == pytest.approx(1.3, abs=1e-9)

    def test_variance_never_negative_nor_above_signal(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 6))
        y = rng.normal(size=20)
        m = GPModel(X, y, KernelParams(1.0, 2.0, 1e-4))
        _, var = m.predict_features(rng.normal(size=(200, 6)))
        assert np.all(var >= 0)
        assert np.all(var <= 2.0 * m.target_std**2 + 1e-9)


class TestFit:
    def test_requires_two_observations(self):
        with pytest.raises(GPError):
            fit(np.zeros((1, 3)), np.array([1.0]))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(15, 4))
        y = np.sin(X.sum(axis=1))
        a = fit(X, y, seed=42)
        b = fit(X, y, seed=42)
        assert a.params == b.params

    def test_duplicate_x_conflicting_y_forces_noise(self):
        X = np.zeros((6, 3))
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        m = fit(X, y, seed=0)
        assert m.params.noise_variance > 1e-6

    def test_constant_targets_predict_constant(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 4))
        y = np.full(10, 3.25)
        m = fit(X, y, seed=0)
        mean, _ = m.predict_features(rng.normal(size=(30, 4)))
        assert np.allclose(mean, 3.25, atol=1e-9)

    def test_recovers_smooth_function(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=feature_dim(5)) * 0.1
        genomes = [random_genome(rng) for _ in range(60)]
        X = featurize_batch(genomes)
        y = X @ w
        m = fit(X, y, seed=1)
        test = [random_genome(rng) for _ in range(40)]
        Ft = featurize_batch(test)
        mean, _ = m.predict_features(Ft)
        rmse = np.sqrt(np.mean((mean - Ft @ w) ** 2))
        # Must clearly beat the trivial predict-the-mean baseline (rmse ~ std).
        assert rmse < 0.75 * np.std(y)


class TestFitBudget:
    """A fit probes each start once, then makes one bounded Powell search from the best.

    No hyperparameter vector is factored twice within a fit.
    """

    @staticmethod
    def data():
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 6))
        return X, np.sin(X.sum(axis=1))

    @staticmethod
    def recorded_params(monkeypatch, seed=3):
        """The (lengthscale, signal, noise) of each ``_factor`` call of one fit, in order."""
        calls = []
        factor = gp._factor

        def recording_factor(table, y, *params):
            calls.append(params)
            return factor(table, y, *params)

        monkeypatch.setattr(gp, "_factor", recording_factor)
        fit(*TestFitBudget.data(), seed=seed)
        return calls

    def test_at_most_thirty_nine_factorizations(self, monkeypatch):
        calls = self.recorded_params(monkeypatch)
        # The probes, the search's evaluations but its first (the best
        # probe, looked up), and the fitted model's own factorization.
        assert len(calls) <= _N_STARTS + 1 + (_MAXFEV - 1) + 1 == 39

    @pytest.mark.parametrize("seed", range(6))
    def test_no_hyperparameters_factored_twice(self, monkeypatch, seed):
        *search, model = self.recorded_params(monkeypatch, seed)
        assert len(set(search)) == len(search)
        # The fitted model factors the best point the search evaluated.
        assert model in search

    @pytest.mark.parametrize("seed", range(6))
    def test_memo_changes_no_bit_of_the_fit(self, monkeypatch, seed):
        X, y = self.data()
        memoized = fit(X, y, seed=seed)
        monkeypatch.setattr(gp, "_memoize", lambda func: func)
        bare = fit(X, y, seed=seed)
        assert memoized.params == bare.params
        assert memoized.L.tobytes() == bare.L.tobytes()
        assert memoized.alpha.tobytes() == bare.alpha.tobytes()

    def test_one_search_from_the_lowest_probe(self, monkeypatch):
        thetas, searches = [], []
        factor, powell = gp._factor, gp._powell

        def recording_factor(table, y, *params):
            thetas.append(np.log(params))
            return factor(table, y, *params)

        def recording_powell(func, x0, lower, upper):
            probes = thetas[:]
            searches.append((x0.copy(), probes, [func(theta) for theta in probes]))
            return powell(func, x0, lower, upper)

        monkeypatch.setattr(gp, "_factor", recording_factor)
        monkeypatch.setattr(gp, "_powell", recording_powell)
        fit(*self.data(), seed=3)
        assert len(searches) == 1
        x0, probes, values = searches[0]
        assert len(probes) == _N_STARTS + 1
        assert np.isfinite(values).all()
        assert np.allclose(x0, probes[int(np.argmin(values))], rtol=0, atol=1e-12)

    def test_raises_when_every_probe_is_infinite(self, monkeypatch):
        def failing_factor(*args):
            raise GPError("covariance not positive definite after maximum jitter 1e-6")

        monkeypatch.setattr(gp, "_factor", failing_factor)
        with pytest.raises(GPError, match="hyperparameter search failed"):
            fit(*self.data(), seed=3)


class TestPowell:
    """``_powell`` is SciPy's bounded Powell, evaluation for evaluation."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        inf_region=st.booleans(),
        grid=st.sampled_from([0.0, 0.1, 1.0]),
        pinned=st.lists(st.sampled_from([None, 0, 1]), min_size=3, max_size=3),
    )
    def test_matches_scipy_powell(self, seed, inf_region, grid, pinned):
        from scipy.optimize import minimize

        rng = np.random.default_rng(seed)
        lower, upper = _LOG_BOUNDS.T
        # A smooth objective over fit's log-bounds: a bowl with ripples.  With
        # inf_region it is inf beyond a random plane through the box, as
        # fit's objective is where the covariance cannot be factored.  A
        # nonzero grid rounds it into plateaus, so the line searches meet ties.
        center = rng.uniform(lower, upper)
        weight = rng.uniform(0.05, 3.0, size=3)
        freq = rng.uniform(0.5, 4.0, size=3)
        amp = rng.uniform(0.0, 1.0)
        normal = rng.normal(size=3)
        offset = normal @ rng.uniform(lower, upper)

        def objective(theta):
            if inf_region and normal @ theta > offset:
                return np.inf
            value = float(weight @ (theta - center) ** 2 + amp * np.sin(freq * theta).sum())
            return grid * round(value / grid) if grid else value

        def recorded(points):
            def f(theta):
                # SciPy passes an array, _powell a tuple of floats.
                points.append(np.array(theta))
                return objective(theta)

            return f

        # Starts inside the box, some coordinates on a bound.
        x0 = rng.uniform(lower, upper)
        for i, side in enumerate(pinned):
            if side is not None:
                x0[i] = _LOG_BOUNDS[i, side]
        want_points, got_points = [], []
        with np.errstate(invalid="ignore"):
            want = minimize(
                recorded(want_points),
                x0,
                method="Powell",
                bounds=_LOG_BOUNDS,
                options={"maxfev": _MAXFEV, "xtol": _XTOL, "ftol": _FTOL},
            )
        x, fun = _powell(recorded(got_points), x0, lower, upper)
        assert len(got_points) == len(want_points)
        assert np.array(got_points).tobytes() == np.array(want_points).tobytes()
        assert x.tobytes() == want.x.tobytes()
        assert fun == want.fun


def modules_loaded_by_importing_the_package(prefix):
    """Names starting with ``prefix`` in ``sys.modules`` of a fresh interpreter that imported every module."""
    code = (
        "import sys, hwnas, hwnas.cli, hwnas.optimize, hwnas.evaluation; "
        f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    )
    paths = [str(Path(hwnas.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_importing_the_package_leaves_out_scipy_optimize():
    """The hyperparameter search is in-module, so no import pulls in scipy.optimize."""
    assert modules_loaded_by_importing_the_package("scipy.optimize") == "[]"


def test_importing_the_package_leaves_out_scipy_spatial():
    """Squared distances are summed in NumPy, so no import pulls in scipy.spatial."""
    assert modules_loaded_by_importing_the_package("scipy.spatial") == "[]"


class TestFactorization:
    def test_factor_reproduces_covariance(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(12, 5))
        y = rng.normal(size=12)
        m = GPModel(X, y, KernelParams(1.5, 1.0, 0.01))
        K = kernel_matrix(m.X, m.X, m.params) + m.params.noise_variance * np.eye(12)
        assert np.max(np.abs(m.L @ m.L.T - K)) < 1e-8


BLOCK_COUNTS = st.sampled_from([1, 2, 5])


def code_sets(rng, nb, m, n):
    """Pool-like rows ``a`` (some copied from ``b``) and training-like rows ``b``."""
    b = random_codes(rng, nb, n)
    a = random_codes(rng, nb, m)
    copies = rng.integers(0, 2, size=m).astype(bool)
    a[copies] = b[rng.integers(n, size=int(copies.sum()))]
    return a, b


def genomes_of(codes):
    return [decode(row) for row in codes]


class TestIntegerCodePath:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nb=BLOCK_COUNTS, n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_codes_and_features_round_trip(self, nb, n, seed):
        codes = random_codes(np.random.default_rng(seed), nb, n)
        X = featurize_codes(codes)
        assert np.array_equal(X, featurize_batch(genomes_of(codes)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        nb=BLOCK_COUNTS,
        m=st.integers(1, 40),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hamming_table_is_the_unique_cdist_table(self, nb, m, n, seed):
        a, b = code_sets(np.random.default_rng(seed), nb, m, n)
        sq = cdist(featurize_batch(genomes_of(a)), featurize_batch(genomes_of(b)), "sqeuclidean")
        uniq, inverse = np.unique(sq, return_inverse=True)
        table = hamming_table(a, b)
        assert table[0].tobytes() == uniq.tobytes()
        assert table[1].dtype == inverse.dtype
        assert np.array_equal(table[1], inverse.reshape(sq.shape))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nb=BLOCK_COUNTS, n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_training_table_from_codes_is_the_distance_table(self, nb, n, seed):
        codes, _ = code_sets(np.random.default_rng(seed), nb, n, n)
        got = hamming_table(codes, codes)
        want = distance_table(featurize_codes(codes))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].dtype == want[1].dtype == np.intp
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        nb=BLOCK_COUNTS,
        m=st.integers(1, 40),
        n=st.integers(2, 30),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_table_posterior_is_predict_features(self, nb, m, n, data, seed):
        rng = np.random.default_rng(seed)
        pool, history = code_sets(rng, nb, m, n)
        # Models trained on a prefix of the rows; the table is of the pool against those rows.
        train = history[: data.draw(st.integers(1, n))]
        X = featurize_codes(train)
        params = KernelParams(*np.exp(rng.uniform([-1.0, -2.0, -6.0], [2.0, 1.0, 0.0])))
        models = [GPModel(X, rng.normal(size=len(train)), params) for _ in range(3)]
        table = hamming_table(pool, train)
        F = featurize_batch(genomes_of(pool))
        for model in models:
            for got, want in zip(model.predict_table(table), model.predict_features(F)):
                assert got.tobytes() == want.tobytes()


def gathered_then_added(table, lengthscale, signal, noise, jitter):
    """Reference covariance for one jitter rung: K gathered from the table, then
    the noise and the jitter (if any) added to its diagonal in place, in that order.
    """
    uniq, inverse = table
    values = signal * np.exp(-uniq / (2.0 * lengthscale**2))
    cov = values[inverse]
    diagonal = cov.reshape(-1)[:: cov.shape[0] + 1]
    diagonal += noise
    if jitter:
        diagonal += jitter
    return cov


class TestDiagonalClass:
    """One gather through ``_gram``'s index gives K + (noise + jitter) I, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        nb=BLOCK_COUNTS,
        n=st.integers(1, 40),
        one_hot=st.booleans(),
        rung=st.integers(0, len(_JITTERS) - 1),
        noiseless=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_rung_gathers_the_added_diagonal(self, nb, n, one_hot, rung, noiseless, seed):
        rng = np.random.default_rng(seed)
        # Duplicate rows: their off-diagonal entries share the diagonal's distance, 0.
        if one_hot:
            codes, _ = code_sets(rng, nb, n, n)
            table = hamming_table(codes, codes)
        else:
            X = rng.normal(size=(n, 3))
            X[rng.integers(0, 2, size=n).astype(bool)] = X[0]
            table = distance_table(X)
        lengthscale, signal, noise = np.exp(rng.uniform(*_LOG_BOUNDS.T)).tolist()
        params = (lengthscale, signal, 0.0 if noiseless else noise)
        y = rng.normal(size=n)

        # Fail the factorization until the ladder reaches ``rung``, keeping each covariance tried.
        tried = []

        def failing_until_rung(a):
            tried.append(np.array(a))
            if len(tried) <= rung:
                raise np.linalg.LinAlgError("forced")
            return cholesky(a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "cholesky", failing_until_rung)
            try:
                reached = _JITTERS.index(_factor(_gram(table), y, *params)[2])
            except GPError:
                # Noiseless duplicates may fail on every rung.
                reached = len(_JITTERS) - 1
        assert rung <= reached
        assert len(tried) == reached + 1
        for got, rung_jitter in zip(tried, _JITTERS):
            want = gathered_then_added(table, *params, rung_jitter)
            assert got.shape == want.shape
            assert got.tobytes(order="F") == want.T.tobytes(order="F")

    def test_ladder_exhausted_raises(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(gp, "cholesky", failing)
        table = distance_table(np.zeros((3, 2)))
        with pytest.raises(GPError, match="maximum jitter"):
            _factor(_gram(table), np.ones(3), 1.0, 1.0, 0.0)

    def test_gram_refuses_a_diagonal_of_two_classes(self):
        # A row with a non-finite feature is at distance NaN from itself.
        X = np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]])
        with np.errstate(invalid="ignore"):
            table = distance_table(X)
        with pytest.raises(ValueError, match="diagonal"):
            _gram(table)

    def test_gram_of_a_gram_is_itself(self):
        gram = _gram(distance_table(np.eye(4)))
        assert _gram(gram) is gram


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(0.0, 1e6, exclude_min=True), min_size=1, max_size=25))
def test_median_of_ascending_values_is_numpys(values):
    values.sort()
    assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()
