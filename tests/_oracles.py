"""Independent oracles used to freeze and cross-check expected values.

Everything here deliberately avoids the library's own computation paths:
quadrature and Monte-Carlo for the Gaussian quantities, literal loops over
configurations for the discrete ones, finite differences for gradients.
"""

import itertools

import numpy as np
from scipy import integrate


def mi_quadrature_bivariate(rho: float) -> float:
    """I(Z;X) for a standardized bivariate Gaussian by direct integration of
    the KL between the joint and the product of marginals."""
    det = 1.0 - rho ** 2

    def integrand(x, z):
        quad = (z * z - 2 * rho * z * x + x * x) / det
        joint = np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(det))
        prod = np.exp(-0.5 * (x * x + z * z)) / (2 * np.pi)
        if joint <= 0:
            return 0.0
        return joint * np.log(joint / prod)

    val, _ = integrate.dblquad(integrand, -8, 8, -8, 8, epsabs=1e-10, epsrel=1e-10)
    return val


def eig_scan_interval(rho1: float, rho2: float, resolution: int = 400001):
    """Feasible Sigma_12 endpoints found by scanning the smallest eigenvalue
    of the 3x3 joint correlation matrix over a fine grid."""
    grid = np.linspace(-1.0, 1.0, resolution)
    feasible = []
    for s in grid:
        m = np.array([[1.0, s, rho1], [s, 1.0, rho2], [rho1, rho2, 1.0]])
        if np.linalg.eigvalsh(m).min() >= -1e-12:
            feasible.append(s)
    return feasible[0], feasible[-1]


def feasible_correlation_grids(m: int, points: int):
    """All symmetric unit-diagonal matrices on a grid of off-diagonal values."""
    n_off = m * (m - 1) // 2
    axes = [np.linspace(-1.0, 1.0, points)] * n_off
    for combo in itertools.product(*axes):
        s = np.eye(m)
        idx = 0
        for i in range(m):
            for j in range(i + 1, m):
                s[i, j] = s[j, i] = combo[idx]
                idx += 1
        yield s


def grid_min_explained_variance(rho: np.ndarray, coarse: int = 21,
                                fine: int = 9, levels: int = 3) -> float:
    """Brute-force grid minimization of rho^T Sigma^{-1} rho over latent
    correlation matrices keeping the joint with X positive semidefinite.

    Coarse scan of the whole cube, then ``levels`` local refinements around
    the best point, each shrinking the search window.
    """
    m = rho.size

    def objective(s):
        joint = np.empty((m + 1, m + 1))
        joint[:m, :m] = s
        joint[:m, m] = joint[m, :m] = rho
        joint[m, m] = 1.0
        if np.linalg.eigvalsh(joint).min() < -1e-10:
            return None
        eigs = np.linalg.eigvalsh(s)
        if eigs.min() < 1e-9:
            return None
        return float(rho @ np.linalg.solve(s, rho))

    offs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    best_val, best_vec = np.inf, None
    for s in feasible_correlation_grids(m, coarse):
        v = objective(s)
        if v is not None and v < best_val:
            best_val, best_vec = v, [s[i, j] for i, j in offs]

    step = 2.0 / (coarse - 1)
    for _ in range(levels):
        local_axes = [np.linspace(c - step, c + step, fine) for c in best_vec]
        for combo in itertools.product(*local_axes):
            s = np.eye(m)
            for (i, j), v in zip(offs, combo):
                s[i, j] = s[j, i] = min(1.0, max(-1.0, v))
            v = objective(s)
            if v is not None and v < best_val:
                best_val, best_vec = v, list(combo)
        step = 2.0 * step / (fine - 1)
    return best_val


def ci_posterior_numeric(rho: np.ndarray, z: np.ndarray, grid: int = 20001,
                         span: float = 12.0):
    """Posterior mean/variance of X given z from p(x) * prod_j p(z_j | x)
    evaluated on an x grid and normalized numerically.

    For standardized Gaussians p(z_j | x) = N(rho_j x, 1 - rho_j^2).
    """
    x = np.linspace(-span, span, grid)
    log_w = -0.5 * x ** 2
    for rj, zj in zip(rho, z):
        var = 1.0 - rj ** 2
        log_w = log_w - 0.5 * (zj - rj * x) ** 2 / var
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    mean = float((w * x).sum())
    var = float((w * (x - mean) ** 2).sum())
    return mean, var


def mc_gaussian_ci_synergy(system, ci_posterior, n_samples: int = 1_000_000,
                           seed: int = 1234) -> float:
    """Monte-Carlo estimate of the expected KL between the exact posterior
    p(x|z) and the conditionally-independent posterior, over z ~ p(z)."""
    rng = np.random.default_rng(seed)
    sigma = system.sigma_z
    rho = system.rho
    z = rng.multivariate_normal(np.zeros(rho.size), sigma, size=n_samples)
    beta = np.linalg.solve(sigma, rho)
    s2 = 1.0 - float(rho @ beta)
    mu_p = z @ beta
    mu_q = z @ ci_posterior.weights
    v = ci_posterior.variance
    kl = 0.5 * np.log(v / s2) + (s2 + (mu_p - mu_q) ** 2) / (2.0 * v) - 0.5
    return float(kl.mean())


def mc_gaussian_mi(system, n_samples: int = 1_000_000, seed: int = 99) -> float:
    """Monte-Carlo I(Z;X) via the log density ratio under the joint."""
    rng = np.random.default_rng(seed)
    m = system.rho.size
    joint = system.joint()
    samples = rng.multivariate_normal(np.zeros(m + 1), joint, size=n_samples)
    z, x = samples[:, :m], samples[:, m]
    beta = np.linalg.solve(system.sigma_z, system.rho)
    s2 = 1.0 - float(system.rho @ beta)
    # log p(x|z) - log p(x)
    lr = (-0.5 * np.log(s2) - (x - z @ beta) ** 2 / (2 * s2)) - (-0.5 * x ** 2)
    return float(lr.mean())


def literal_ci_synergy(joint: np.ndarray) -> float:
    """Expected KL to the factorized-model posterior by explicit loops."""
    shape = joint.shape
    m = joint.ndim - 1
    nx = shape[-1]
    z_configs = list(itertools.product(*(range(s) for s in shape[:-1])))
    p_x = np.zeros(nx)
    for zc in z_configs:
        for x in range(nx):
            p_x[x] += joint[zc + (x,)]
    # p(z_j = a | x)
    cond = []
    for j in range(m):
        t = np.zeros((shape[j], nx))
        for zc in z_configs:
            for x in range(nx):
                t[zc[j], x] += joint[zc + (x,)]
        cond.append(t / np.where(p_x > 0, p_x, 1.0))
    total = 0.0
    for zc in z_configs:
        pz = sum(joint[zc + (x,)] for x in range(nx))
        if pz <= 0:
            continue
        qz = sum(p_x[x] * np.prod([cond[j][zc[j], x] for j in range(m)])
                 for x in range(nx))
        for x in range(nx):
            pxz = joint[zc + (x,)] / pz
            if pxz <= 0:
                continue
            qxz = p_x[x] * np.prod([cond[j][zc[j], x] for j in range(m)]) / qz
            total += pz * pxz * np.log(pxz / qxz)
    return total


def bayes_posterior_binary(p_x1: float, pz1_given_x1: np.ndarray,
                           pz1_given_x0: np.ndarray, z: np.ndarray) -> float:
    """p(X=1 | z) for conditionally independent binary latents, by Bayes."""
    like1 = p_x1
    like0 = 1.0 - p_x1
    for j, zj in enumerate(z):
        like1 *= pz1_given_x1[j] if zj else (1.0 - pz1_given_x1[j])
        like0 *= pz1_given_x0[j] if zj else (1.0 - pz1_given_x0[j])
    return like1 / (like1 + like0)


def two_pass_correlations(x: np.ndarray, z: np.ndarray):
    """Literal covariance / std computation (population convention)."""
    mx, mz = x.mean(axis=0), z.mean(axis=0)
    sx = np.sqrt(((x - mx) ** 2).mean(axis=0))
    sz = np.sqrt(((z - mz) ** 2).mean(axis=0))
    cov = np.einsum("bi,bj->ij", x - mx, z - mz) / x.shape[0]
    return cov / np.outer(sx, sz), mx, sx, mz, sz


def finite_difference_gradients(loss_of_params, params: dict, h: float = 1e-5):
    """Central differences of a scalar function of the parameter arrays."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = loss_of_params()
            p[idx] = orig - h
            lm = loss_of_params()
            p[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
            it.iternext()
        grads[name] = g
    return grads


def pca_directions_eigh(data: np.ndarray, k: int) -> np.ndarray:
    """Top-k principal directions (n, k) by a full eigensolve of the n x n
    covariance."""
    xc = data - data.mean(axis=0)
    cov = xc.T @ xc / data.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    return vecs[:, np.argsort(vals)[::-1][:k]]


def pca_reconstruction_mse(data: np.ndarray, k: int) -> float:
    """Reconstruction error through the top-k eigenvectors, full eigensolve."""
    mean = data.mean(axis=0)
    xc = data - mean
    top = pca_directions_eigh(data, k)
    recon = mean + (xc @ top) @ top.T
    return float(((data - recon) ** 2).sum(axis=1).mean())


def sigmoid_two_branch(v: np.ndarray) -> np.ndarray:
    """Logistic by masked branches: 1/(1+e^-v) where v >= 0, e^v/(1+e^v)
    elsewhere."""
    out = np.empty_like(v, dtype=float)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def bce_textbook(x: np.ndarray, xbar: np.ndarray, clamp: float) -> float:
    """Clamped binary cross-entropy, summed over features, mean over rows."""
    xc = np.clip(xbar, clamp, 1.0 - clamp)
    terms = -(x * np.log(xc) + (1.0 - x) * np.log1p(-xc))
    return float(terms.sum(axis=-1).mean())


def adam_textbook(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One bias-corrected Adam update written as the formula; returns new
    (p, m, v) and leaves its arguments untouched."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g ** 2
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def binary_readout_whole(x_mean, z_mean, xz_mean, eps):
    """Naive-Bayes readout in whole-array passes: (pz1_given_x1,
    pz1_given_x0, weights, bias), outputs with E[x] outside [eps, 1 - eps]
    falling back to the latent marginals."""
    px1 = np.clip(x_mean, eps, 1.0 - eps)
    supported = ((x_mean >= eps) & (x_mean <= 1.0 - eps))[:, None]
    q1 = np.where(supported, xz_mean / px1[:, None], z_mean[None, :])
    q0 = np.where(supported, (z_mean[None, :] - xz_mean) / (1.0 - px1)[:, None],
                  z_mean[None, :])
    q1 = np.clip(q1, eps, 1.0 - eps)
    q0 = np.clip(q0, eps, 1.0 - eps)
    weights = np.log(q1 * (1.0 - q0)) - np.log((1.0 - q1) * q0)
    bias = np.log(px1 / (1.0 - px1)) + np.log((1.0 - q1) / (1.0 - q0)).sum(axis=1)
    return q1, q0, weights, bias


def gaussian_readout_whole(x_mean, z_mean, x_sq_mean, z_sq_mean, xz_mean, eps, std_floor):
    """Conditionally-independent posterior readout in whole-array passes:
    (rho, weights, bias, variance)."""
    x_std = np.sqrt(np.clip(x_sq_mean - x_mean ** 2, std_floor ** 2, None))
    z_std = np.sqrt(np.clip(z_sq_mean - z_mean ** 2, std_floor ** 2, None))
    rho = (xz_mean - np.outer(x_mean, z_mean)) / np.outer(x_std, z_std)
    rho = np.clip(rho, -(1.0 - eps), 1.0 - eps)
    r2 = rho ** 2
    one_plus_big_r = 1.0 + (r2 / (1.0 - r2)).sum(axis=1)
    u = (rho / (1.0 - r2)) / one_plus_big_r[:, None]
    weights = u * np.outer(x_std, 1.0 / z_std)
    bias = x_mean - weights @ z_mean
    variance = x_std ** 2 / one_plus_big_r
    return rho, weights, bias, variance
