"""Independent oracles used to freeze and cross-check expected values.

Everything here deliberately avoids the library's own computation paths:
quadrature and Monte-Carlo for the Gaussian quantities, literal loops over
configurations for the discrete ones, finite differences for gradients.
Two exceptions run the library's own steps: the loss those differences are
taken of, which runs the encoder with the decoder readout pinned, and
``train_full_width``, the training loop over every pixel.  The one-item
loops that bulk code paths are checked against (validation, synthetic
digits, SVG points, text lines) read the library's glyphs, plot constants
and error class, but none of its computation.
"""

import itertools
import math

import numpy as np
from scipy import integrate

from minsyn import nn
from minsyn.gaussian import ConditioningError
from minsyn.words import GLYPH_SIDE, MAX_SHIFT, builtin_glyph


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


def ci_posterior_direct(rho: np.ndarray, clamp: float) -> tuple:
    """(weights, variance) of the conditionally-independent posterior of one
    correlation vector, term by term in the order the formula is written:
    weight_j = rho_j / (1 - rho_j^2) / (1 + R), variance = 1 / (1 + R)."""
    r = np.clip(rho, -(1.0 - clamp), 1.0 - clamp)
    big_r = float((r ** 2 / (1.0 - r ** 2)).sum())
    return (r / (1.0 - r ** 2)) / (1.0 + big_r), 1.0 / (1.0 + big_r)


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


def total_correlation_per_axis(joint: np.ndarray) -> float:
    """TC(Z_{1:m}) = sum_j H(Z_j) - H(Z_{1:m}) of a (z_1, ..., z_m, x) table,
    each H(Z_j) summed from the latent marginal over the other m - 1 latent
    axes, as `discrete` computed it before it took H(Z_j) from the (z_j, x)
    pair tables."""
    def entropy(p):
        p = p[p > 0.0]
        return float(-(p * np.log(p)).sum())

    pz = joint.sum(axis=-1)
    singles = sum(entropy(pz.sum(axis=tuple(a for a in range(pz.ndim) if a != j)))
                  for j in range(pz.ndim))
    return max(0.0, singles - entropy(pz.ravel()))


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


def affine_readout(readout, z) -> np.ndarray:
    """Affine part w . z + b of a decoder readout for a batch of latents
    (B, m): the arithmetic ``nn._decode`` applies before the output
    activation."""
    return np.asarray(z, dtype=float) @ readout.weights.T + readout.bias


def pinned_readout_loss(model, x, rng, regularizer, readout=None) -> float:
    """Training loss of one forward pass with a MinSyn decoder pinned to
    ``readout``, so the loss is a function of the network parameters alone.

    For MinSyn kinds the latents come from ``nn._encode``, given the
    regularizer's draw made from ``rng`` as a training step makes it, and
    are read out through ``affine_readout`` (then a sigmoid for the binary
    decoder).
    Learned kinds run ``nn.forward`` in train mode and pass no readout.
    The reconstruction is scored against the clean input.
    """
    x = np.asarray(x, dtype=float)
    if readout is None:
        _, xbar = nn.forward(model, x, mode="train", rng=rng, regularizer=regularizer)
    else:
        x_input, draw = x, None
        if regularizer.is_noop:
            regularizer = nn.NO_REGULARIZER
        elif regularizer.kind == "input_gaussian_noise":
            x_input = x + regularizer.sigma * rng.standard_normal(x.shape)
        else:
            shape = (x.shape[0], model.latent_dim)
            draw = (rng.random(shape) if regularizer.kind == "dropout"
                    else rng.standard_normal(shape))
        _, _, z, _ = nn._encode(model, x_input, regularizer, draw)
        xbar = affine_readout(readout, z)
        if model.decoder_kind == "minsyn_binary":
            xbar = nn.sigmoid(xbar)
    return nn.loss(x, xbar, model.loss_kind)


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


def logit_bce_long_double(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per-row cross entropy of sigmoid(a) against x as a function of the
    logits, log(1 + e^a) - x a summed over features, in long double (64-bit
    significand on x86)."""
    a = np.asarray(a, dtype=np.longdouble)
    x = np.asarray(x, dtype=np.longdouble)
    return (np.logaddexp(np.longdouble(0), a) - x * a).sum(axis=-1)


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
    (rho, weights, bias)."""
    x_std = np.sqrt(np.clip(x_sq_mean - x_mean ** 2, std_floor ** 2, None))
    z_std = np.sqrt(np.clip(z_sq_mean - z_mean ** 2, std_floor ** 2, None))
    rho = (xz_mean - np.outer(x_mean, z_mean)) / np.outer(x_std, z_std)
    rho = np.clip(rho, -(1.0 - eps), 1.0 - eps)
    r2 = rho ** 2
    one_plus_big_r = 1.0 + (r2 / (1.0 - r2)).sum(axis=1)
    u = (rho / (1.0 - r2)) / one_plus_big_r[:, None]
    weights = u * np.outer(x_std, 1.0 / z_std)
    bias = x_mean - weights @ z_mean
    return rho, weights, bias


def closed_form_measures(rho: np.ndarray, sigma: np.ndarray) -> tuple:
    """(MI, WMS, GK, CI synergy) of one standardized Gaussian system, in nats,
    by the per-system closed forms with one eigvalsh and one solve per
    measure, as `gaussian` computed them before it stacked systems.

    The order of every floating-point operation is kept, so results must
    match the library's bit for bit; the return types (Python float for the
    clamps and infinities, numpy float64 otherwise) are kept too.
    """
    def explained_variance():
        if np.linalg.eigvalsh(sigma).min() < 1e-12:
            raise ValueError("singular sigma_z")
        return float(rho @ np.linalg.solve(sigma, rho))

    def mutual_information():
        residual = 1.0 - explained_variance()
        if residual <= 0.0:
            return np.inf
        return max(0.0, -0.5 * np.log(residual))

    k = int(np.argmax(np.abs(rho)))
    union = float((-0.5 * np.log1p(-rho[k:k + 1] ** 2))[0])
    mi = mutual_information()
    wms = mutual_information() - float((-0.5 * np.log1p(-rho ** 2)).sum())
    gk = max(0.0, mutual_information() - union)

    s2 = 1.0 - explained_variance()
    r = np.clip(rho, -(1.0 - 1e-4), 1.0 - 1e-4)
    big_r = float((r ** 2 / (1.0 - r ** 2)).sum())
    weights = (r / (1.0 - r ** 2)) / (1.0 + big_r)
    v = 1.0 / (1.0 + big_r)
    if s2 <= 0.0:
        ci = np.inf
    else:
        d = np.linalg.solve(sigma, rho) - weights
        gap = float(d @ sigma @ d)
        ci = max(0.0, 0.5 * np.log(v / s2) + (s2 + gap) / (2.0 * v) - 0.5)
    return mi, wms, gk, ci


def check_stack_two_solves(rho: np.ndarray, sigma: np.ndarray, singular_is_error: bool) -> tuple:
    """The checks of ``gaussian._check_stack`` with one eigvalsh on the
    (k, m, m) sigma_z stack and another on the (k, m+1, m+1) joints, the
    systems taken one at a time in a loop.

    Returns (error type, start of its message) of the first failing system's
    first failing check, or (None, smallest eigenvalue of each sigma_z).
    """
    k, m = rho.shape
    finite = np.isfinite(sigma).all(axis=(1, 2))
    sigma = np.where(finite[:, None, None], sigma, np.eye(m))
    joint = np.empty((k, m + 1, m + 1))
    joint[:, :m, :m] = sigma
    joint[:, :m, m] = joint[:, m, :m] = rho
    joint[:, m, m] = 1.0
    eig_min = np.linalg.eigvalsh(sigma).min(axis=1)
    joint_min = np.linalg.eigvalsh(joint).min(axis=1)
    checks = [
        (~finite, ValueError, "sigma_z contains non-finite entries"),
        (np.abs(sigma - sigma.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-12,
         ValueError, "sigma_z must be symmetric"),
        (np.abs(np.diagonal(sigma, axis1=1, axis2=2) - 1.0).max(axis=1) > 1e-12,
         ValueError, "sigma_z must have a unit diagonal"),
        (eig_min < -1e-10, ValueError, "sigma_z is not positive semidefinite"),
        (joint_min < -1e-10, ValueError, "joint covariance [[sigma_z, rho], [rho^T, 1]] "
         "is not positive semidefinite"),
    ]
    if singular_is_error:
        checks.append((eig_min < 1e-12, ConditioningError, "sigma_z is singular"))
    for i in range(k):
        for failed, error, message in checks:
            if failed[i]:
                return error, message
    return None, eig_min


def arrowhead_sigma(rho: np.ndarray, k: int) -> np.ndarray:
    """The GK-minimizing covariance: v = rho / rho_k in row and column k, and
    zeros elsewhere off the diagonal unless v without v_k has squared norm
    above 1 - 1e-6, in which case v v^T with a unit diagonal."""
    v = rho / rho[k]
    rest = np.delete(v, k)
    sigma = np.outer(v, v) if rest @ rest > 1.0 - 1e-6 else np.eye(rho.size)
    sigma[k, :] = sigma[:, k] = v
    np.fill_diagonal(sigma, 1.0)
    return sigma


def synergy_curve_grid(rho1: float, rho2: float, steps: int) -> np.ndarray:
    """The `synergy-curve` grid: strictly interior points of the feasible
    Sigma_12 interval, with the union-gap zero snapped onto the nearest one."""
    half = np.sqrt((1.0 - rho1 ** 2) * (1.0 - rho2 ** 2))
    lo, hi = rho1 * rho2 - half, rho1 * rho2 + half
    grid = lo + (hi - lo) * (np.arange(1, steps + 1) / (steps + 1))
    mags = np.abs([rho1, rho2])
    if mags.max() > 0 and mags[0] != mags[1]:
        zero = (rho1 / rho2) if np.argmax(mags) == 1 else (rho2 / rho1)
        if lo < zero < hi:
            grid[np.argmin(np.abs(grid - zero))] = zero
    return grid


def synergy_curve_rows(rho1: float, rho2: float, sigma12, scale: float = 1.0) -> list:
    """(sigma12, MI, union, GK, CI) rows of a pair curve, one system at a time,
    each measure multiplied by scale (1 / ln 2 for bits)."""
    rho = np.array([rho1, rho2], dtype=float)
    k = int(np.argmax(np.abs(rho)))
    union = float((-0.5 * np.log1p(-rho[k:k + 1] ** 2))[0])
    rows = []
    for s12 in sigma12:
        sigma = np.array([[1.0, float(s12)], [float(s12), 1.0]])
        mi, _, gk, ci = closed_form_measures(rho, sigma)
        rows.append((float(s12), scale * mi, scale * union, scale * gk, scale * ci))
    return rows


def train_full_width(config, data) -> tuple:
    """``nn.train_autoencoder`` on every pixel, with no pixel left out:
    (model, per-epoch mean batch loss), through the library's own step,
    Adam update and moving average, on one BLAS thread."""
    with nn._one_blas_thread():
        data = np.asarray(data, dtype=float)
        n_samples = data.shape[0]
        model = nn.build_autoencoder(data.shape[1], config.encoder_spec,
                                     config.decoder_kind, seed=config.seed)
        rng = np.random.default_rng(config.seed + 1)
        opt = nn.AdamState(lr=config.lr)
        params = model.parameters()
        history = []
        for epoch in range(config.epochs):
            order = rng.permutation(n_samples)
            batch_losses = []
            for start in range(0, n_samples, config.batch_size):
                idx = order[start:start + config.batch_size]
                if idx.size == 1:
                    continue
                batch = data[idx]
                loss_value, grads, stats = nn.gradients(model, batch, rng=rng,
                                                        regularizer=config.regularizer)
                if not np.isfinite(loss_value):
                    raise nn.TrainingDivergedError(epoch, start // config.batch_size)
                nn.adam_step(opt, params, grads)
                if stats is not None:
                    model.ma_state = nn.update_moving_average(model.ma_state, stats)
                batch_losses.append(loss_value)
            history.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
    return model, history


def shift_image(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate with zero fill (no wrap-around)."""
    out = np.zeros_like(img)
    h, w = img.shape
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[ys, xs] = img[ys_src, xs_src]
    return out


def synthetic_digits_per_image(count: int, seed: int) -> tuple:
    """``words.synthetic_digits`` one image at a time: draw the digit, then
    its (dy, dx) shift, then shift the glyph with zero fill."""
    rng = np.random.default_rng(seed)
    base = [builtin_glyph(str(d)) for d in range(10)]
    images = np.empty((count, GLYPH_SIDE * GLYPH_SIDE))
    labels = np.empty(count, dtype=int)
    for i in range(count):
        d = int(rng.integers(10))
        dy, dx = (int(v) for v in rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2))
        images[i] = shift_image(base[d], dy, dx).ravel()
        labels[i] = d
    return images, labels


def apply_noise_whole_masks(images, kind: str, seed: int = 0) -> np.ndarray:
    """``noise.apply_noise`` through one boolean mask of the whole batch per
    kind, each tile mask spread over its pixels with ``np.kron``."""
    chunk = 4
    imgs = np.array(images, dtype=float)
    b, w = imgs.shape[0], imgs.shape[1] // GLYPH_SIDE
    rast = imgs.reshape(b, GLYPH_SIDE, w)
    rng = np.random.default_rng(seed)
    if kind == "bottom_half":
        rast[:, GLYPH_SIDE // 2:, :] = 0.0
    elif kind == "right_half":
        rast[:, :, w // 2:] = 0.0
    elif kind == "erase_chunk":
        ty, tx = GLYPH_SIDE // chunk, w // chunk
        drop = rng.random((b, ty, tx)) < 0.5
        full = np.zeros((b, GLYPH_SIDE, w), dtype=bool)
        full[:, :ty * chunk, :tx * chunk] = np.kron(drop, np.ones((chunk, chunk), dtype=bool))
        rast[full] = 0.0
    elif kind == "v_stripe":
        cols = rng.random((b, w)) < 0.5
        rast[np.broadcast_to(cols[:, None, :], rast.shape)] = 0.5
    elif kind == "h_stripe":
        rows = rng.random((b, GLYPH_SIDE)) < 0.5
        rast[np.broadcast_to(rows[:, :, None], rast.shape)] = 0.5
    return rast.reshape(b, GLYPH_SIDE * w)


def svg_polylines_per_point(x, series: dict) -> list:
    """The ``<polyline>`` elements ``svg.line_plot_svg`` draws, scaling and
    formatting one point at a time, with ``svg``'s plot box and palette."""
    from minsyn.svg import _H, _MB, _ML, _MR, _MT, _PALETTE, _W

    xs = [float(v) for v in x]
    finite_y = [float(v) for ys in series.values() for v in ys if math.isfinite(v)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite_y), max(finite_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    span_x = (x_hi - x_lo) or 1.0

    def sx(v):
        return _ML + (v - x_lo) / span_x * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = []
    for ys, color in zip(series.values(), _PALETTE):
        pts, runs = [], []
        for xv, yv in zip(xs, ys):
            if math.isfinite(yv):
                pts.append(f"{sx(xv):.2f},{sy(float(yv)):.2f}")
            elif pts:
                runs.append(pts)
                pts = []
        if pts:
            runs.append(pts)
        out += [f'<polyline points="{" ".join(run)}" fill="none" '
                f'stroke="{color}" stroke-width="1.6"/>' for run in runs]
    return out


def to_text_per_axis(probs: np.ndarray) -> str:
    """``DiscreteJoint.to_text`` one axis at a time: the symbols of every
    positive cell's indices, then the repr of its probability."""
    where = np.nonzero(probs > 0.0)
    columns = [[f"{s} " for s in i.tolist()] for i in where]
    values = map(repr, probs[where].tolist())
    return "".join("".join(parts) + "\n" for parts in zip(*columns, values))
