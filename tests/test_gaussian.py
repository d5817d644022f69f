import itertools
import re

import numpy as np
import pytest

from minsyn.gaussian import (
    ConditioningError,
    _check_stack,
    DegeneracyError,
    RHO_CLAMP,
    GaussianSystem,
    ci_weights,
    feasible_sigma12_range,
    gaussian_ci_posterior,
    gaussian_ci_synergy,
    gaussian_mutual_information,
    gk_minimizing_covariance,
    gk_synergy,
    gk_union_information,
    pair_curve,
    wms_synergy,
)

from _oracles import (
    arrowhead_sigma,
    check_stack_two_solves,
    ci_posterior_direct,
    ci_posterior_numeric,
    closed_form_measures,
    eig_scan_interval,
    mc_gaussian_ci_synergy,
    mi_quadrature_bivariate,
    synergy_curve_grid,
    synergy_curve_rows,
)

MEASURES = (gaussian_mutual_information, wms_synergy, gk_synergy, gaussian_ci_synergy)


def random_correlation(rng, size):
    a = rng.standard_normal((size, size + 2))
    c = a @ a.T
    d = 1.0 / np.sqrt(np.diag(c))
    c = c * d[:, None] * d[None, :]
    np.fill_diagonal(c, 1.0)
    return (c + c.T) / 2.0


class TestFeasibleRange:
    def test_reference_pair(self):
        # frozen from the eigenvalue-scan oracle (see test_matches_eig_scan)
        iv = feasible_sigma12_range(0.5, 0.75)
        assert iv.lo == pytest.approx(-0.19782, abs=1e-5)
        assert iv.hi == pytest.approx(0.94782, abs=1e-5)

    def test_matches_eig_scan(self):
        lo, hi = eig_scan_interval(0.5, 0.75, resolution=200001)
        iv = feasible_sigma12_range(0.5, 0.75)
        assert iv.lo == pytest.approx(lo, abs=2e-5)
        assert iv.hi == pytest.approx(hi, abs=2e-5)

    def test_uncorrelated_marginals_unconstrained(self):
        iv = feasible_sigma12_range(0.0, 0.0)
        assert (iv.lo, iv.hi) == (-1.0, 1.0)

    def test_membership(self):
        iv = feasible_sigma12_range(0.5, 0.75)
        assert iv.lo <= -0.10 <= iv.hi
        assert not iv.lo <= -0.5 <= iv.hi

    def test_endpoints_make_joint_singular(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r1, r2 = rng.uniform(-0.95, 0.95, size=2)
            iv = feasible_sigma12_range(r1, r2)
            for s in (iv.lo, iv.hi):
                m = np.array([[1, s, r1], [s, 1, r2], [r1, r2, 1.0]])
                assert abs(np.linalg.eigvalsh(m).min()) <= 1e-8

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            feasible_sigma12_range(1.0, 0.5)
        with pytest.raises(ValueError):
            feasible_sigma12_range(0.5, -1.2)


class TestGaussianSystem:
    def test_rejects_unrealizable(self):
        with pytest.raises(ValueError, match="not realizable|positive semi"):
            GaussianSystem.pair(0.5, 0.75, -0.5)

    def test_rejects_bad_diag(self):
        with pytest.raises(ValueError):
            GaussianSystem(np.array([0.3]), np.array([[2.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussianSystem(np.array([0.1, 0.1]),
                           np.array([[1.0, 0.2], [0.3, 1.0]]))

    @pytest.mark.parametrize("rho, sigma, message", [
        ([0.1, 0.1], [[1.0, np.nan], [np.nan, 1.0]], "non-finite"),
        ([0.1, 0.1], [[1.0, 1.5], [1.5, 1.0]], "sigma_z is not positive semidefinite"),
        ([0.5, 0.75], [[1.0, -0.5], [-0.5, 1.0]], "not realizable"),
        ([0.1, 0.1], np.eye(3), "does not match"),
    ])
    def test_rejects_with_message(self, rho, sigma, message):
        with pytest.raises(ValueError, match=message):
            GaussianSystem(np.array(rho), np.array(sigma))

    def test_measures_share_one_solve(self, monkeypatch):
        calls = {"solve": 0, "eigvalsh": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(np.linalg, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        sys_ = GaussianSystem(np.array([0.3, -0.6, 0.45]),
                              np.array([[1.0, 0.2, 0.1], [0.2, 1.0, -0.3], [0.1, -0.3, 1.0]]))
        assert calls == {"solve": 0, "eigvalsh": 1}  # sigma_z and the joint together
        for f in MEASURES:
            f(sys_)
        assert calls == {"solve": 1, "eigvalsh": 1}

    def test_cached_solution_is_read_only(self):
        sys_ = GaussianSystem.pair(0.5, 0.75, -0.10)
        beta, _ = sys_._readout
        assert not beta.flags.writeable
        with pytest.raises(ValueError):
            beta[0] = 0.0

    def test_measures_match_per_system_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            c = random_correlation(rng, int(rng.integers(2, 8)))
            rho, sigma = c[-1, :-1].copy(), c[:-1, :-1].copy()
            got = tuple(f(GaussianSystem(rho, sigma)) for f in MEASURES)
            # repr tells floats apart by their bits and by their type
            assert repr(got) == repr(closed_form_measures(rho, sigma))
            # and GK synergy at the GK-minimizing covariance
            at_min = gk_minimizing_covariance(rho)
            k = int(np.argmax(np.abs(rho)))
            assert at_min.sigma_z.tobytes() == arrowhead_sigma(rho, k).tobytes()
            assert repr(gk_synergy(at_min)) == repr(closed_form_measures(rho, at_min.sigma_z)[2])


def _failing_systems() -> dict:
    """One three-latent system failing each check of _check_stack, in the
    order the checks run, and a valid one."""
    rho, nan = [0.3, 0.3, 0.1], np.nan
    systems = {
        "non-finite": (rho, [[1.0, nan, 0.0], [nan, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "asymmetric": (rho, [[1.0, 0.2, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "non-unit diagonal": (rho, [[1.1, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "not PSD": (rho, [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]),
        "not realizable": ([0.8, 0.8, 0.0], np.eye(3)),
        "singular": (rho, [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "valid": (rho, [[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    }
    return {k: (np.array(r), np.array(s)) for k, (r, s) in systems.items()}


def _expect(error, message):
    return pytest.raises(error, match="^" + re.escape(message))


class TestOneSolveValidation:
    """_check_stack takes sigma_z's spectrum and the joint's from one
    eigvalsh call; it raises what the two-call check raised, system by
    system and check by check."""

    def assert_like_oracle(self, rho, sigma, singular_is_error):
        error, value = check_stack_two_solves(rho, sigma, singular_is_error)
        if error is None:
            eig_min = _check_stack(rho, sigma, singular_is_error)
            np.testing.assert_allclose(eig_min, value, rtol=0.0, atol=1e-13)
            return
        with _expect(error, value) as raised:
            _check_stack(rho, sigma, singular_is_error)
        assert type(raised.value) is error

    @pytest.mark.parametrize("case", _failing_systems())
    def test_each_check_through_a_system(self, case):
        rho, sigma = _failing_systems()[case]
        error, message = check_stack_two_solves(rho[None], sigma[None], False)
        if error is not None:
            with _expect(error, message) as raised:
                GaussianSystem(rho, sigma)
            assert type(raised.value) is error
            return
        sys_ = GaussianSystem(rho, sigma)
        error, message = check_stack_two_solves(rho[None], sigma[None], True)
        if error is None:
            assert case == "valid"
            for f in MEASURES:
                f(sys_)
            return
        assert case == "singular"
        for f in MEASURES:
            with _expect(ConditioningError, message + " (smallest eigenvalue "):
                f(sys_)

    def test_every_order_of_failing_systems(self):
        systems = list(_failing_systems().values())
        for order in itertools.permutations(range(len(systems)), 3):
            rho = np.array([systems[i][0] for i in order])
            sigma = np.array([systems[i][1] for i in order])
            for singular_is_error in (False, True):
                self.assert_like_oracle(rho, sigma, singular_is_error)

    @pytest.mark.parametrize("rho1, rho2, sigma12", [
        (0.5, 0.75, [np.nan, 1.5, -0.5, 1.0]),   # non-finite first
        (0.5, 0.75, [1.5, np.nan]),              # not PSD before a later non-finite one
        (0.5, 0.75, [0.1, -0.5, 1.5]),           # not realizable first
        (0.5, 0.75, [0.5, 1.0, np.nan]),         # singular, but the joint check runs first
        (0.3, 0.3, [0.5, 1.0, 1.5]),             # singular first
        (0.3, 0.3, [-1.0, 0.2]),                 # singular and not realizable
        (0.5, 0.75, [0.1, 0.6, 0.9]),            # all valid
    ])
    def test_stacked_pair_curve(self, rho1, rho2, sigma12):
        rho = np.broadcast_to([rho1, rho2], (len(sigma12), 2))
        sigma = np.array([[[1.0, s], [s, 1.0]] for s in sigma12])
        self.assert_like_oracle(rho, sigma, True)
        error, message = check_stack_two_solves(rho, sigma, True)
        if error is None:
            pair_curve(rho1, rho2, np.array(sigma12))
        else:
            with _expect(error, message) as raised:
                pair_curve(rho1, rho2, np.array(sigma12))
            assert type(raised.value) is error

    def test_smallest_latent_eigenvalue_within_rounding(self):
        rng = np.random.default_rng(17)
        for size in range(2, 9):
            c = np.array([random_correlation(rng, size) for _ in range(20)])
            self.assert_like_oracle(c[:, -1, :-1].copy(), c[:, :-1, :-1].copy(), True)


class TestRhoChecks:
    """Each public entry point checks rho once and reports the first failing
    check: a non-finite entry before a |rho_j| >= 1 one."""

    ENTRY_POINTS = {
        "system": lambda r: GaussianSystem(r, np.eye(r.size)),
        "union": gk_union_information,
        "minimizer": gk_minimizing_covariance,
        "curve": lambda r: pair_curve(*r[:2], np.zeros(1)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("rho, message", [
        ([np.nan, 1.5], "rho contains non-finite entries"),
        ([1.5, np.nan], "rho contains non-finite entries"),
        ([-1.0, np.inf], "rho contains non-finite entries"),
        ([0.2, -np.inf], "rho contains non-finite entries"),
        ([0.2, 1.0], "correlations must satisfy |rho_j| < 1"),
        ([-1.2, 0.3], "correlations must satisfy |rho_j| < 1"),
    ])
    def test_first_failing_check_wins(self, entry, rho, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            self.ENTRY_POINTS[entry](np.array(rho))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _one_at_a_time(rho1, rho2, sigma12):
    for s12 in sigma12:
        sys_ = GaussianSystem.pair(rho1, rho2, s12)
        for f in MEASURES:
            f(sys_)


class TestPairCurve:
    COLUMNS = ["mutual_information", "union_information", "gk_synergy", "ci_synergy"]

    def assert_matches_oracle(self, rho1, rho2, grid):
        curve = pair_curve(rho1, rho2, grid)
        assert list(curve) == self.COLUMNS
        rows = synergy_curve_rows(rho1, rho2, grid)
        for i, name in enumerate(self.COLUMNS, start=1):
            assert _bits(curve[name]) == _bits([r[i] for r in rows]), name

    @pytest.mark.parametrize("rho1, rho2, steps", [
        (0.5, 0.75, 101),    # the paper pair
        (-0.3, 0.6, 101),    # mixed signs
        (0.6, -0.45, 101),
        (-0.8, -0.2, 101),   # both negative
        (0.7, -0.7, 101),    # equal magnitudes: no snapped zero
        (0.4, 0.4, 101),
        (0.5, 0.75, 3),
    ])
    def test_matches_per_system_oracle(self, rho1, rho2, steps):
        self.assert_matches_oracle(rho1, rho2, synergy_curve_grid(rho1, rho2, steps))

    def test_snapped_zero_of_the_paper_pair(self):
        grid = synergy_curve_grid(0.5, 0.75, 101)
        at = int(np.flatnonzero(grid == 0.5 / 0.75)[0])
        assert pair_curve(0.5, 0.75, grid)["gk_synergy"][at] == 0.0

    def test_matches_per_system_oracle_on_seeded_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            rho1, rho2 = rng.uniform(-0.95, 0.95, size=2)
            self.assert_matches_oracle(rho1, rho2, synergy_curve_grid(rho1, rho2, 101))

    @pytest.mark.parametrize("rho1, rho2, sigma12, error", [
        (0.0, 0.0, [0.5, 1.5], ValueError),            # sigma_z not PSD
        (0.5, 0.75, [0.0, -0.5], ValueError),          # joint not PSD
        (0.5, 0.75, [0.1, np.nan], ValueError),
        (1.0, 0.5, [0.1], ValueError),
        (0.3, 0.3, [0.5, 1.0], ConditioningError),     # singular sigma_z
        (0.3, 0.3, [0.5, 1.0, 1.5], ConditioningError),  # the first failing system wins
        (0.3, 0.3, [0.5, 1.5, 1.0], ValueError),
    ])
    def test_raises_what_one_system_at_a_time_raises(self, rho1, rho2, sigma12, error):
        with pytest.raises(ValueError) as alone:
            _one_at_a_time(rho1, rho2, sigma12)
        assert type(alone.value) is error
        with pytest.raises(error, match=f"^{re.escape(str(alone.value))}$") as stacked:
            pair_curve(rho1, rho2, np.array(sigma12))
        assert type(stacked.value) is error


class TestMutualInformation:
    def test_single_predictor_vs_quadrature(self):
        # frozen: dblquad KL oracle gives 0.2231435513
        sys_ = GaussianSystem(np.array([0.6]), np.eye(1))
        assert gaussian_mutual_information(sys_) == pytest.approx(0.22314, abs=1e-5)
        assert gaussian_mutual_information(sys_) == pytest.approx(
            mi_quadrature_bivariate(0.6), abs=1e-9)

    def test_independent_is_zero(self):
        sys_ = GaussianSystem(np.zeros(2), np.eye(2))
        assert gaussian_mutual_information(sys_) == 0.0

    def test_hand_linear_algebra_case(self):
        sys_ = GaussianSystem.pair(0.5, 0.75, 2 / 3)
        # rho^T Sigma^{-1} rho = 0.5625 by hand; cross-checked with solve
        beta = np.linalg.solve(sys_.sigma_z, sys_.rho)
        assert sys_.rho @ beta == pytest.approx(0.5625, abs=1e-12)
        assert gaussian_mutual_information(sys_) == pytest.approx(
            -0.5 * np.log(1 - 0.5625), abs=1e-12)
        assert gaussian_mutual_information(sys_) == pytest.approx(0.41334, abs=1e-5)

    def test_singular_latents_raise(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        sys_ = GaussianSystem(np.array([0.3, 0.3]), sigma)
        with pytest.raises(ConditioningError):
            gaussian_mutual_information(sys_)


class TestWmsSynergy:
    def test_pure_noise_target(self):
        assert wms_synergy(GaussianSystem(np.zeros(2), np.eye(2))) == 0.0

    def test_duplicated_predictor_redundancy(self):
        # at the Sigma boundary a duplicated predictor contributes nothing new
        sys_ = GaussianSystem.pair(0.6, 0.6, 1 - 1e-9)
        single = -0.5 * np.log(1 - 0.36)
        assert wms_synergy(sys_) == pytest.approx(-single, abs=1e-6)

    def test_reference_decomposition(self):
        sys_ = GaussianSystem.pair(0.5, 0.75, -0.10)
        i1 = -0.5 * np.log(1 - 0.25)
        i2 = -0.5 * np.log(1 - 0.5625)
        assert i1 == pytest.approx(0.14384, abs=1e-5)
        assert i2 == pytest.approx(0.41334, abs=1e-5)
        assert wms_synergy(sys_) == pytest.approx(
            gaussian_mutual_information(sys_) - i1 - i2, abs=1e-12)


class TestUnionInformation:
    def test_strongest_predictor(self):
        assert gk_union_information([0.5, 0.75]) == pytest.approx(
            -0.5 * np.log(0.4375), abs=1e-12)
        assert gk_union_information([0.5, 0.75]) == pytest.approx(0.41334, abs=1e-5)

    def test_zero_rho(self):
        assert gk_union_information([0.0]) == 0.0

    def test_negative_max_magnitude(self):
        assert gk_union_information([0.3, -0.9, 0.5]) == pytest.approx(
            -0.5 * np.log(1 - 0.81), abs=1e-12)
        assert gk_union_information([0.3, -0.9, 0.5]) == pytest.approx(0.83037, abs=1e-5)

    def test_tie_breaks_to_lowest_index(self):
        assert gk_union_information([0.7, -0.7]) == pytest.approx(
            -0.5 * np.log(1 - 0.49), abs=1e-15)


class TestGkSynergy:
    def test_zero_at_minimizing_correlation(self):
        sys_ = GaussianSystem.pair(0.5, 0.75, 2 / 3)
        assert gk_synergy(sys_) <= 1e-9

    def test_reference_value(self):
        # frozen from the closed form with rho^T Sigma^{-1} rho = 0.8875/0.99
        sys_ = GaussianSystem.pair(0.5, 0.75, -0.10)
        assert gk_synergy(sys_) == pytest.approx(0.720582, abs=1e-6)

    def test_single_predictor_is_never_synergistic(self):
        for r in (-0.8, 0.0, 0.55):
            sys_ = GaussianSystem(np.array([r]), np.eye(1))
            assert gk_synergy(sys_) == 0.0

    def test_consistency_with_parts(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r1, r2 = rng.uniform(-0.9, 0.9, size=2)
            iv = feasible_sigma12_range(r1, r2)
            width = iv.hi - iv.lo
            s12 = rng.uniform(iv.lo + 0.05 * width, iv.hi - 0.05 * width)
            sys_ = GaussianSystem.pair(r1, r2, s12)
            diff = gaussian_mutual_information(sys_) - gk_union_information(sys_.rho)
            assert gk_synergy(sys_) == max(0.0, diff)
            assert gk_synergy(sys_) >= 0.0


class TestMinimizingCovariance:
    def test_reference_pair(self):
        sys_ = gk_minimizing_covariance(np.array([0.5, 0.75]))
        assert sys_.sigma_z[0, 1] == pytest.approx(2 / 3, abs=1e-12)

    def test_single_predictor(self):
        sys_ = gk_minimizing_covariance(np.array([0.9]))
        assert sys_.sigma_z.shape == (1, 1)
        assert sys_.sigma_z[0, 0] == 1.0

    def test_three_predictors_arrowhead(self):
        sys_ = gk_minimizing_covariance(np.array([0.2, 0.4, 0.8]))
        expected = np.array([[1.0, 0.0, 0.25], [0.0, 1.0, 0.5], [0.25, 0.5, 1.0]])
        assert np.allclose(sys_.sigma_z, expected, atol=1e-12)
        assert gk_synergy(sys_) <= 1e-9

    def test_completion_when_zeros_infeasible(self):
        # two near-maximal correlations force the off-row completion
        sys_ = gk_minimizing_covariance(np.array([0.9, 0.85, 0.85]))
        assert np.linalg.eigvalsh(sys_.sigma_z).min() >= -1e-10
        assert sys_.sigma_z[0, 1] == pytest.approx(0.85 / 0.9, abs=1e-12)
        assert gk_synergy(sys_) <= 1e-9

    def test_tied_maximum_is_degenerate(self):
        with pytest.raises(DegeneracyError):
            gk_minimizing_covariance(np.array([0.7, -0.7]))


class TestCiPosterior:
    def test_single_latent_exact_posterior(self):
        post = gaussian_ci_posterior([0.8])
        assert post.weights[0] == pytest.approx(0.8, abs=1e-12)
        assert post.variance == pytest.approx(1 - 0.64, abs=1e-12)

    def test_uninformative(self):
        post = gaussian_ci_posterior([0.0, 0.0])
        assert np.allclose(post.weights, 0.0)
        assert post.variance == 1.0

    def test_reference_weights(self):
        # frozen from the numeric product-of-conditionals oracle
        post = gaussian_ci_posterior([0.5, 0.75])
        assert post.weights == pytest.approx([0.25455, 0.65455], abs=1e-5)
        assert post.variance == pytest.approx(0.38182, abs=1e-5)

    def test_matches_numeric_product(self):
        rng = np.random.default_rng(11)
        rho = np.array([0.5, 0.75])
        post = gaussian_ci_posterior(rho)
        for _ in range(5):
            z = rng.normal(size=2)
            mean, var = ci_posterior_numeric(rho, z)
            assert post.weights @ z == pytest.approx(mean, abs=1e-5)
            assert post.variance == pytest.approx(var, abs=1e-5)

    def test_clamped_perfect_correlation(self):
        post = gaussian_ci_posterior([1.0])
        assert np.isfinite(post.weights).all()

    def test_equals_the_direct_formula_bit_for_bit(self):
        rng = np.random.default_rng(40)
        for _ in range(2000):
            rho = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9)))
            rho[rng.random(rho.size) < 0.1] = rng.choice([-1.0, 1.0])
            post = gaussian_ci_posterior(rho)
            weights, variance = ci_posterior_direct(rho, RHO_CLAMP)
            assert post.weights.tobytes() == weights.tobytes()
            assert post.variance == variance

    def test_rows_of_a_block_equal_single_vectors(self):
        r = np.clip(np.random.default_rng(41).uniform(-1, 1, size=(50, 7)),
                    -(1.0 - RHO_CLAMP), 1.0 - RHO_CLAMP)
        weights, one_plus_big_r = ci_weights(r.copy())
        for row, w, s in zip(r, weights, one_plus_big_r):
            post = gaussian_ci_posterior(row)
            assert w.tobytes() == post.weights.tobytes()
            assert 1.0 / s == post.variance


class TestCiSynergy:
    def test_single_latent_zero(self):
        for r in (-0.6, 0.0, 0.9):
            assert gaussian_ci_synergy(GaussianSystem(np.array([r]), np.eye(1))) == 0.0

    def test_factorized_encoding_zero(self):
        sys_ = GaussianSystem.pair(0.5, 0.75, 0.5 * 0.75)
        assert gaussian_ci_synergy(sys_) <= 1e-9

    def test_factorized_encoding_zero_general(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 4):
            rho = rng.uniform(-0.85, 0.85, size=m)
            sigma = np.outer(rho, rho)
            np.fill_diagonal(sigma, 1.0)
            sys_ = GaussianSystem(rho, sigma)
            assert gaussian_ci_synergy(sys_) <= 1e-9

    def test_matches_monte_carlo(self):
        sys_ = GaussianSystem.pair(0.5, 0.75, -0.10)
        value = gaussian_ci_synergy(sys_)
        mc = mc_gaussian_ci_synergy(sys_, gaussian_ci_posterior(sys_.rho),
                                    n_samples=1_000_000)
        assert value > 0.0
        assert value == pytest.approx(mc, rel=0.02)


class TestPermutationInvariance:
    def test_measures_invariant_under_latent_permutation(self):
        rng = np.random.default_rng(17)
        rho = np.array([0.3, -0.6, 0.45])
        sigma = np.outer(rho, rho) * 0.9
        np.fill_diagonal(sigma, 1.0)
        sys_ = GaussianSystem(rho, sigma)
        perm = rng.permutation(3)
        sys_p = GaussianSystem(rho[perm], sigma[np.ix_(perm, perm)])
        for f in (gaussian_mutual_information, wms_synergy, gk_synergy,
                  gaussian_ci_synergy):
            assert f(sys_) == pytest.approx(f(sys_p), abs=1e-12)
        assert gk_union_information(rho) == pytest.approx(
            gk_union_information(rho[perm]), abs=1e-12)
