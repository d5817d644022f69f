"""Closed-form information and synergy measures for standardized Gaussian systems.

A system here is one scalar target X and m latent predictors Z_{1:m}, all
standardized to zero mean and unit variance, so it is fully described by the
target correlations rho_j = <Z_j X> and the latent correlation matrix
Sigma_{jk} = <Z_j Z_k>.  All information quantities are returned in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Eigenvalues of correlation matrices may dip this far below zero and the
# matrix is still accepted as positive semidefinite.
PSD_TOL = 1e-10

# Correlations are clamped to +-(1 - RHO_CLAMP) before any rho/(1-rho^2)
# division so posterior weights stay bounded.
RHO_CLAMP = 1e-4

# Smallest latent-covariance eigenvalue we are willing to invert.
_SINGULAR_EIG = 1e-12


class ConditioningError(ValueError):
    """Latent correlation matrix is singular beyond tolerance."""


class DegeneracyError(ValueError):
    """The maximal-|rho| predictor is not unique, so the synergy-minimizing
    covariance is not unique either."""


def _as_rho_vector(rho) -> np.ndarray:
    r = np.atleast_1d(np.asarray(rho, dtype=float))
    if r.ndim != 1 or r.size == 0:
        raise ValueError("rho must be a non-empty 1-D vector of correlations")
    # |r| < 1 is false for NaN and inf too; only then is the cause sorted out
    if not np.less(np.abs(r), 1.0).all():
        if not np.isfinite(r).all():
            raise ValueError("rho contains non-finite entries")
        raise ValueError("correlations must satisfy |rho_j| < 1")
    return r


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the real line."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")


def _joint_stack(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(k, m+1, m+1) joint correlation matrices of k systems."""
    k, m = rho.shape
    j = np.empty((k, m + 1, m + 1))
    j[:, :m, :m] = sigma
    j[:, :m, m] = rho
    j[:, m, :m] = rho
    j[:, m, m] = 1.0
    return j


def _singular(eig_min: float) -> ConditioningError:
    return ConditioningError(
        f"sigma_z is singular (smallest eigenvalue {eig_min:.3e}); "
        "mutual information is not defined by the closed form"
    )


# What _check_stack raises for each of its checks, in the order they run.
_STACK_ERRORS = (
    "sigma_z contains non-finite entries",
    "sigma_z must be symmetric",
    "sigma_z must have a unit diagonal",
    "sigma_z is not positive semidefinite",
    "joint covariance [[sigma_z, rho], [rho^T, 1]] is not positive "
    "semidefinite: the requested correlations are not realizable",
)


def _check_stack(rho: np.ndarray, sigma: np.ndarray, singular_is_error: bool) -> np.ndarray:
    """Validate k systems at once and return the smallest eigenvalue of each
    latent matrix.

    rho is (k, m) with rows already accepted by _as_rho_vector; sigma is
    (k, m, m).  Raises the error that validating the systems one at a time
    would raise: that of the first system failing any check, for the first
    check it fails.  With singular_is_error a latent matrix too singular to
    invert fails last, with ConditioningError.
    """
    k, m = rho.shape
    finite = np.isfinite(sigma).all(axis=(1, 2))
    if not finite.all():
        # LAPACK must not see non-finite entries; those systems fail first.
        sigma = np.where(finite[:, None, None], sigma, np.eye(m))
    asymmetric = np.abs(sigma - sigma.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-12
    off_diagonal = np.abs(sigma.reshape(k, -1)[:, :: m + 1] - 1.0).max(axis=1) > 1e-12
    # One LAPACK call takes both spectra: the joints' (index 0) and sigma_z's
    # as diag(sigma_z, 1) (index 1).  A unit-diagonal sigma_z has trace m, so
    # its smallest eigenvalue is at most 1 and is also the padded matrix's;
    # a sigma_z without a unit diagonal fails before its eigenvalue counts.
    stacked = np.zeros((2, k, m + 1, m + 1))
    stacked[:, :, :m, :m] = sigma
    stacked[0, :, :m, m] = stacked[0, :, m, :m] = rho
    stacked[:, :, m, m] = 1.0
    joint_min, eig_min = np.linalg.eigvalsh(stacked).min(axis=2)
    checks = [~finite, asymmetric, off_diagonal, eig_min < -PSD_TOL, joint_min < -PSD_TOL]
    if singular_is_error:
        checks.append(eig_min < _SINGULAR_EIG)
    failed = np.array(checks)  # (check, system)
    if failed.any():
        row = int(np.argmax(failed.any(axis=0)))
        order = int(np.argmax(failed[:, row]))
        if order == len(_STACK_ERRORS):
            raise _singular(eig_min[row])
        raise ValueError(_STACK_ERRORS[order])
    return eig_min


def _solve_stack(rho: np.ndarray, sigma: np.ndarray) -> tuple:
    """beta = Sigma_z^{-1} rho (k, m) and q = rho^T beta (k floats) of k
    systems that passed _check_stack.

    One stacked solve gives each system the bits of its own solve; the dot
    products stay one per system, since a stacked product rounds differently.
    """
    beta = np.linalg.solve(sigma, rho[..., None])[..., 0]
    return beta, [float(r @ b) for r, b in zip(rho, beta)]


@dataclass(frozen=True, eq=False)
class GaussianSystem:
    """Standardized Gaussian system: target correlations and latent covariance.

    Parameters
    ----------
    rho : (m,) array
        Correlations <Z_j X>, each strictly inside (-1, 1).
    sigma_z : (m, m) array
        Latent correlation matrix: symmetric, unit diagonal, positive
        semidefinite.  The full joint matrix [[sigma_z, rho], [rho^T, 1]]
        must also be positive semidefinite, otherwise no joint Gaussian
        with these marginal statistics exists.

    The system is validated once, at construction; Sigma_z^{-1} rho is
    solved on first use and cached, read-only, for every measure, so rho
    and sigma_z must not be changed in place.
    """

    rho: np.ndarray
    sigma_z: np.ndarray

    def __post_init__(self):
        r = _as_rho_vector(self.rho)
        s = np.asarray(self.sigma_z, dtype=float)
        if s.shape != (r.size, r.size):
            raise ValueError(f"sigma_z shape {s.shape} does not match m={r.size}")
        object.__setattr__(self, "rho", r)
        object.__setattr__(self, "sigma_z", s)
        (eig_min,) = _check_stack(r[None], s[None], singular_is_error=False)
        object.__setattr__(self, "_eig_min", float(eig_min))

    @property
    def m(self) -> int:
        return self.rho.size

    def joint(self) -> np.ndarray:
        """The (m+1) x (m+1) correlation matrix of (Z_1, ..., Z_m, X)."""
        return _joint_stack(self.rho[None], self.sigma_z[None])[0]

    @cached_property
    def _readout(self) -> tuple:
        """(Sigma_z^{-1} rho, rho^T Sigma_z^{-1} rho), solved once per system."""
        if self._eig_min < _SINGULAR_EIG:
            raise _singular(self._eig_min)
        (beta,), (q,) = _solve_stack(self.rho[None], self.sigma_z[None])
        beta.setflags(write=False)
        return beta, q

    @classmethod
    def pair(cls, rho1: float, rho2: float, sigma12: float) -> "GaussianSystem":
        """Two-predictor system with latent correlation sigma12."""
        return cls(np.array([rho1, rho2]),
                   np.array([[1.0, sigma12], [sigma12, 1.0]]))


@dataclass(frozen=True, eq=False)
class CiPosterior:
    """Gaussian posterior of X given z under a conditionally independent
    encoding: mean = weights . z, fixed variance."""

    weights: np.ndarray
    variance: float

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if not np.all(np.isfinite(w)):
            raise ValueError("posterior weights must be finite")
        object.__setattr__(self, "weights", w)
        if not (0.0 < self.variance <= 1.0):
            raise ValueError("posterior variance must lie in (0, 1]")


def feasible_sigma12_range(rho1: float, rho2: float) -> Interval:
    """Range of latent correlations Sigma_12 that keep (Z_1, Z_2, X) realizable.

    For fixed target correlations rho1, rho2 the 3x3 joint correlation matrix
    is positive semidefinite exactly when Sigma_12 lies in

        rho1*rho2 +- sqrt((1 - rho1^2) (1 - rho2^2)).

    At the endpoints the joint matrix is singular.
    """
    for name, v in (("rho1", rho1), ("rho2", rho2)):
        if not np.isfinite(v) or abs(v) >= 1.0:
            raise ValueError(f"{name}={v} outside the open interval (-1, 1)")
    half_width = np.sqrt((1.0 - rho1 ** 2) * (1.0 - rho2 ** 2))
    center = rho1 * rho2
    return Interval(center - half_width, center + half_width)


def _mutual_information(q: float) -> float:
    """-1/2 ln(1 - q) for the explained variance q = rho^T Sigma_z^{-1} rho."""
    residual = 1.0 - q
    if residual <= 0.0:
        return np.inf
    return max(0.0, -0.5 * np.log(residual))


def gaussian_mutual_information(sys: GaussianSystem) -> float:
    """I(Z_{1:m}; X) = -1/2 ln(1 - rho^T Sigma_z^{-1} rho), in nats.

    Returns +inf when the joint matrix is singular (X is a deterministic
    function of the latents).
    """
    return _mutual_information(sys._readout[1])


def _single_predictor_information(rho: np.ndarray) -> np.ndarray:
    return -0.5 * np.log1p(-rho ** 2)


def wms_synergy(sys: GaussianSystem) -> float:
    """Whole-minus-sum synergy: I(Z_{1:m};X) - sum_j I(Z_j;X).

    Negative values indicate redundancy among the predictors.
    """
    return gaussian_mutual_information(sys) - float(
        _single_predictor_information(sys.rho).sum())


def gk_union_information(rho) -> float:
    """Union information of Gaussian predictors, in nats.

    Minimizing joint information subject to fixed pairwise (Z_j, X) marginals
    leaves exactly the information of the single most correlated predictor:
    U = -1/2 ln(1 - rho_k^2) with k = argmax_j |rho_j| (ties broken toward
    the lowest index).
    """
    return _union_information(_as_rho_vector(rho))


def _union_information(r: np.ndarray) -> float:
    """gk_union_information of a vector _as_rho_vector accepted."""
    k = int(np.argmax(np.abs(r)))
    return float(_single_predictor_information(r[k : k + 1])[0])


def gk_synergy(sys: GaussianSystem) -> float:
    """Joint information minus union information, clamped at zero.

    Equals 1/2 ln((1 - rho_k^2) / (1 - rho^T Sigma_z^{-1} rho)) and is
    computed as gaussian_mutual_information(sys) - gk_union_information(rho)
    so the two readings share one floating-point path.
    """
    s = gaussian_mutual_information(sys) - _union_information(sys.rho)
    return max(0.0, s)


def gk_minimizing_covariance(rho) -> GaussianSystem:
    """Latent covariance that drives the union-information gap to zero.

    The returned matrix has a unit diagonal and rho_j/rho_k in row/column k,
    where k indexes the unique largest |rho_j|.  Off that row the entries are
    zero whenever zeros keep the matrix positive semidefinite; otherwise the
    remaining block is completed as (rho_i rho_j)/rho_k^2, which leaves the
    optimal readout of X (and hence the zero synergy) unchanged.
    """
    r = _as_rho_vector(rho)
    mags = np.abs(r)
    k = int(np.argmax(mags))
    others = mags != mags[k]
    if np.count_nonzero(others) < r.size - 1:
        raise DegeneracyError(
            "two or more predictors tie for the largest |rho|; the "
            "synergy-minimizing covariance is degenerate"
        )
    v = r / r[k]  # v[k] == 1
    off = v[others]
    if off @ off <= 1.0 - 1e-6:
        sigma = np.eye(r.size)
        sigma[k, :] = v
        sigma[:, k] = v
        sigma[k, k] = 1.0
    else:
        sigma = np.outer(v, v)
        np.fill_diagonal(sigma, 1.0)
    return GaussianSystem(r, sigma)


def gaussian_ci_posterior(rho) -> CiPosterior:
    """Posterior of X given z when the encoding is treated as conditionally
    independent given X.

    With R = sum_j rho_j^2/(1 - rho_j^2):

        weight_j = rho_j / ((1 - rho_j^2) (1 + R)),   variance = 1/(1 + R).

    Correlations are clamped to +-(1 - 1e-4) first, so the weights stay
    bounded even for (numerically) perfect predictors.
    """
    r = np.atleast_1d(np.asarray(rho, dtype=float))
    if r.ndim != 1 or r.size == 0:
        raise ValueError("rho must be a non-empty 1-D vector")
    return CiPosterior(*_ci_posterior(r))


def clamp(x: np.ndarray, lo: float, hi: float, out=None) -> np.ndarray:
    """np.clip(x, lo, hi) as two ufunc calls, into ``out`` when given; the
    bound first in the maximum keeps np.clip's bytes (signed zeros, NaNs)."""
    out = np.maximum(lo, x, out=out)
    return np.minimum(out, hi, out=out)


def clamp_correlations(r: np.ndarray, out=None) -> np.ndarray:
    """Correlations clamped to +-(1 - RHO_CLAMP), into ``out`` when given."""
    return clamp(r, -(1.0 - RHO_CLAMP), 1.0 - RHO_CLAMP, out=out)


def _ci_posterior(r: np.ndarray) -> tuple:
    """(weights, variance) of gaussian_ci_posterior for a 1-D rho."""
    weights, one_plus_big_r = ci_weights(clamp_correlations(r))
    return weights, float(1.0 / one_plus_big_r)


def ci_weights(r: np.ndarray) -> tuple:
    """(weights, 1 + R) of ``gaussian_ci_posterior`` along the last axis of
    the clamped correlations ``r``, finished in place in r's buffer."""
    r2 = r ** 2
    one_minus_r2 = 1.0 - r2
    one_plus_big_r = 1.0 + np.add.reduce(np.divide(r2, one_minus_r2, out=r2), axis=-1)
    weights = np.divide(r, one_minus_r2, out=r)
    weights /= one_plus_big_r[..., None]
    return weights, one_plus_big_r


def gaussian_ci_synergy(sys: GaussianSystem) -> float:
    """Expected KL divergence from the true posterior p(x|z) to the
    conditionally-independent posterior, averaged over p(z).  Nats, >= 0.

    Both posteriors are Gaussian with means linear in z, so the expectation
    reduces in closed form: with beta = Sigma_z^{-1} rho, s2 = 1 - rho.beta,
    (w, v) the conditionally-independent weights and variance, and
    d = beta - w,

        CI = 1/2 ln(v / s2) + (s2 + d^T Sigma_z d) / (2 v) - 1/2.
    """
    beta, q = sys._readout
    return _ci_synergy(sys.sigma_z, beta, q, *_ci_posterior(sys.rho))


def _ci_synergy(sigma: np.ndarray, beta: np.ndarray, q: float, weights: np.ndarray,
                v: float) -> float:
    s2 = 1.0 - q
    if s2 <= 0.0:
        # Deterministic target: the KL to any fixed-variance posterior diverges.
        return np.inf
    d = beta - weights
    gap = float(d @ sigma @ d)
    ci = 0.5 * np.log(v / s2) + (s2 + gap) / (2.0 * v) - 0.5
    return max(0.0, ci)


def pair_curve(rho1: float, rho2: float, sigma12) -> dict:
    """Measures of the two-predictor systems GaussianSystem.pair(rho1, rho2, s)
    for every latent correlation s in the 1-D array sigma12, in nats.

    Returns float arrays keyed "mutual_information", "union_information",
    "gk_synergy" and "ci_synergy", each entry the bits of that measure on the
    system built alone.  The systems are validated and solved as one stack;
    an invalid one raises what building and measuring it alone would.
    """
    r = _as_rho_vector(np.array([rho1, rho2]))
    s12 = np.asarray(sigma12, dtype=float)
    if s12.ndim != 1:
        raise ValueError("sigma12 must be a 1-D array of latent correlations")
    sigma = np.empty((s12.size, 2, 2))
    sigma[:, 0, 0] = sigma[:, 1, 1] = 1.0
    sigma[:, 0, 1] = sigma[:, 1, 0] = s12
    rho = np.broadcast_to(r, (s12.size, 2))
    _check_stack(rho, sigma, singular_is_error=True)
    beta, q = _solve_stack(rho, sigma)
    union = _union_information(r)
    post = _ci_posterior(r)
    mi = [_mutual_information(qi) for qi in q]
    return {
        "mutual_information": np.array(mi),
        "union_information": np.full(s12.size, union),
        "gk_synergy": np.array([max(0.0, v - union) for v in mi]),
        "ci_synergy": np.array([_ci_synergy(s, b, qi, *post)
                                for s, b, qi in zip(sigma, beta, q)]),
    }
