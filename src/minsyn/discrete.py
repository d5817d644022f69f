"""Exact information measures on small, fully enumerated discrete joints.

Tables are stored dense with one axis per latent variable plus a final axis
for the target, so everything here is computed by explicit marginalization.
This keeps the module exact and makes it the natural brute-force oracle for
the Gaussian closed forms and the learned decoders.  All values in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

MAX_LATENTS = 12
# from_text refuses, before allocating, a table of more cells than this
# (128 MiB of float64); arities come from the symbols in the text.
MAX_TEXT_CELLS = 2 ** 24
_SUM_TOL = 1e-12


class AbsoluteContinuityError(ValueError):
    """p(z) > 0 at a configuration where the factorized model gives
    probability zero, so the KL divergence is infinite."""


def _xlogx(p: np.ndarray) -> np.ndarray:
    # 0 ln 0 = 0 stays in place, so a sum runs over the whole table.
    out = np.log(np.where(p > 0.0, p, 1.0))
    out *= p
    return out


def _sum_last(a: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis=-1) with its bits, in whole-array passes when
    the last axis is short.

    numpy sums a row shorter than 8 one element at a time from +0.0, but in
    one tiny inner loop per row; adding the columns in order runs that sum
    for every row at once.  Longer rows are summed pairwise, so they go to
    numpy.
    """
    n = a.shape[-1]
    if n >= 8:
        return np.add.reduce(a, axis=-1)
    out = a[..., 0] + 0.0  # a fresh array, and -0.0 + 0.0 is +0.0 as in numpy
    for x in range(1, n):
        out += a[..., x]
    return out


def _entropy(p: np.ndarray) -> float:
    """-sum p ln p of a table that is already a validated distribution."""
    return float(-_xlogx(p).sum())


class _Symbols(dict):
    """int() of each distinct symbol token, parsed once per table."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def _line_past_cap(text: str, symbols: list) -> int:
    """Number of the text line whose symbols first size the table past
    MAX_TEXT_CELLS; ``symbols`` holds the parsed rows of its data lines."""
    data_lines = (ln_no for ln_no, parts in enumerate(map(str.split, text.splitlines()), start=1)
                  if parts and parts[0][0] != "#")
    shape = [1] * len(symbols[0])
    for ln_no, row in zip(data_lines, symbols):
        shape = [max(size, v + 1) for size, v in zip(shape, row)]
        if math.prod(shape) > MAX_TEXT_CELLS:
            return ln_no


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def entropy(marginal) -> float:
    """Shannon entropy -sum p ln p of a single distribution, with 0 ln 0 = 0."""
    p = np.asarray(marginal, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("distribution contains non-finite entries")
    if np.any(p < -_SUM_TOL) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"not a probability distribution (sum={p.sum()!r})")
    return _entropy(np.clip(p, 0.0, None))


def _group_mi(p_gx: np.ndarray, p_g: np.ndarray, p_x: np.ndarray) -> float:
    """I(G; X) from the (g..., x) table and its two marginals."""
    return max(0.0, _entropy(p_g.ravel()) + _entropy(p_x) - _entropy(p_gx.ravel()))


def _table_mi(p_gx: np.ndarray) -> float:
    """I(G; X) from the (g..., x) table alone."""
    return _group_mi(p_gx, p_gx.sum(axis=-1), p_gx.sum(axis=tuple(range(p_gx.ndim - 1))))


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Dense joint distribution over m latents Z_1..Z_m and one target X.

    ``probs`` has shape ``arities`` with axes ordered (z_1, ..., z_m, x).
    The joint is validated once, at construction, and ``probs`` is
    read-only: the marginals and mutual informations the measures share are
    computed on first use and cached, read-only, on the joint.
    """

    probs: np.ndarray
    arities: tuple = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim < 2:
            raise ValueError("a joint needs at least one latent and the target")
        if p.ndim - 1 > MAX_LATENTS:
            raise ValueError(f"at most {MAX_LATENTS} latent variables supported")
        if not np.isfinite(p).all():
            raise ValueError("probs contains non-finite entries")
        if (p < -_SUM_TOL).any():
            raise ValueError("negative probability entries")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", _read_only(np.clip(p, 0.0, None)))
        object.__setattr__(self, "arities", p.shape)

    @property
    def m(self) -> int:
        return self.probs.ndim - 1

    @cached_property
    def _x_marginal(self) -> np.ndarray:
        return _read_only(self.probs.sum(axis=tuple(range(self.m))))

    @cached_property
    def _z_marginal(self) -> np.ndarray:
        return _read_only(_sum_last(self.probs))

    @cached_property
    def _pair_marginals(self) -> tuple:
        """p(z_j, x) of each latent j, shape (arity_j, |X|).

        A weighted bincount adds each output's cells one at a time in C
        order, from 0.0, as ``marginal([j, m])`` does while x is the inner
        axis of numpy's loop.  With |X| = 1 that sum runs pairwise along a
        dropped axis instead, so it stays the marginal.
        """
        *latents, nx = self.arities
        if nx == 1:
            return tuple(_read_only(self.marginal([j, self.m])) for j in range(self.m))
        flat, pairs = self.probs.ravel(), []
        for j, a in enumerate(latents):
            # the code z_j |X| + x of every cell, in C order
            block = np.arange(a * nx).reshape(a, 1, nx).repeat(math.prod(latents[j + 1:]), axis=1)
            codes = block.reshape(1, -1).repeat(math.prod(latents[:j]), axis=0).ravel()
            pairs.append(_read_only(np.bincount(codes, flat, a * nx).reshape(a, nx)))
        return tuple(pairs)

    @cached_property
    def _pair_entropies(self) -> tuple:
        """H(Z_j), H(X) and H(Z_j, X) of each latent's pair table, three
        lists of floats in latent order.

        The tables of one shape are stacked.  A row-wise reduce runs, on
        each row, the summation numpy runs on that row alone, so every
        entropy has the bits _table_mi gives the table.
        """
        shapes = {}
        for j, p_jx in enumerate(self._pair_marginals):
            shapes.setdefault(p_jx.shape, []).append(j)
        h = np.empty((3, self.m))
        for js in shapes.values():
            t = np.stack([self._pair_marginals[j] for j in js])
            for row, p in enumerate((np.add.reduce(t, axis=2), np.add.reduce(t, axis=1),
                                     t.reshape(len(js), -1))):
                h[row, js] = -np.add.reduce(_xlogx(p), axis=1)
        return tuple(h.tolist())

    @cached_property
    def _whole_mi(self) -> float:
        return _group_mi(self.probs, self._z_marginal, self._x_marginal)

    @cached_property
    def _single_mis(self) -> tuple:
        return tuple(max(0.0, h_z + h_x - h_zx) for h_z, h_x, h_zx in zip(*self._pair_entropies))

    def marginal(self, axes) -> np.ndarray:
        """Marginal over the given axes (latents by index, target = m)."""
        keep = sorted(set(axes))
        if any(a < 0 or a > self.m for a in keep):
            raise ValueError(f"axis out of range for axes 0..{self.m}")
        drop = tuple(a for a in range(self.probs.ndim) if a not in keep)
        return self.probs.sum(axis=drop)

    @classmethod
    def xor(cls) -> "DiscreteJoint":
        """Two fair independent bits with X = Z1 xor Z2."""
        p = np.zeros((2, 2, 2))
        for z1, z2 in product((0, 1), repeat=2):
            p[z1, z2, z1 ^ z2] = 0.25
        return cls(p)

    @classmethod
    def from_conditionals(cls, p_x, pz_given_x) -> "DiscreteJoint":
        """Joint with latents conditionally independent given X.

        ``p_x`` is the target marginal; ``pz_given_x`` is a list of m tables,
        table j of shape (arity_j, |X|) holding p(Z_j = a | X = x).
        """
        px = np.asarray(p_x, dtype=float)
        # Start with p(x) and attach latent axes from the left so the final
        # layout is (z_1, ..., z_m, x).
        table = px
        for cond in reversed(list(pz_given_x)):
            c = np.asarray(cond, dtype=float)
            if c.shape[1] != px.size:
                raise ValueError("conditional table does not match |X|")
            table = c.reshape(c.shape[0], *([1] * (table.ndim - 1)), px.size) * table[None, ...]
        return cls(table)

    @classmethod
    def from_text(cls, text: str) -> "DiscreteJoint":
        """Parse the plain-text table format.

        One line per configuration: the integer symbol of each latent, then
        the target symbol, then the probability, all space-separated.  Lines
        starting with ``#`` and blank lines are ignored; absent
        configurations have probability zero; lines repeating a
        configuration are summed in file order; arities are inferred as
        (largest symbol + 1) per column.  A parse error names the first bad line.
        """
        symbol = _Symbols().__getitem__
        isfinite = math.isfinite
        symbols, probs = [], []
        for ln_no, parts in enumerate(map(str.split, text.splitlines()), start=1):
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) < 3:
                raise ValueError(f"line {ln_no}: need at least z, x and a probability")
            prob = parts.pop()
            try:
                row = list(map(symbol, parts))
                prob = float(prob)
            except ValueError as exc:
                raise ValueError(f"line {ln_no}: {exc}") from None
            if min(row) < 0:
                raise ValueError(f"line {ln_no}: negative symbol")
            if not isfinite(prob):
                raise ValueError(f"line {ln_no}: probability contains non-finite entries")
            symbols.append(row)
            probs.append(prob)
        if not symbols:
            raise ValueError("empty table")
        width = len(symbols[0])
        if any(len(row) != width for row in symbols):
            raise ValueError("inconsistent number of variables across lines")
        columns = list(zip(*symbols))
        shape = [max(column) + 1 for column in columns]
        if math.prod(shape) > MAX_TEXT_CELLS:
            raise ValueError(f"line {_line_past_cap(text, symbols)}: the table would have "
                             f"more than {MAX_TEXT_CELLS} cells")
        table = np.zeros(shape)
        np.add.at(table, tuple(np.array(columns, dtype=np.intp)), probs)
        return cls(table)

    def to_text(self) -> str:
        """The text format: one line per positive configuration, in C order."""
        cells = np.flatnonzero(self.probs > 0.0)
        names = [f"{s} " for s in range(max(self.arities))]
        # The symbols of a run of trailing axes are joined once per
        # configuration of the run.  A run takes another axis only while it
        # keeps no more configurations than there are lines, so joining
        # costs at most a pass over the lines per run.
        runs, prefixes, span = [], [""], 1
        for a in reversed(self.arities):
            if span > 1 and span * a > cells.size:
                runs.append((prefixes, span))
                prefixes, span = [""], 1
            prefixes = [name + p for name in names[:a] for p in prefixes]
            span *= a
        runs.append((prefixes, span))
        columns, stride = [], 1
        for prefixes, span in runs:
            columns.append(list(map(prefixes.__getitem__, (cells // stride % span).tolist())))
            stride *= span
        values = map(repr, self.probs.ravel()[cells].tolist())
        return "\n".join(map("".join, zip(*reversed(columns), values))) + "\n"

def mutual_information(joint: DiscreteJoint, group) -> float:
    """I(Z_group; X) by exact summation; ``group`` holds latent indices."""
    idx = sorted(set(group))
    if not idx:
        raise ValueError("group of latent indices must be non-empty")
    if any(i < 0 or i >= joint.m for i in idx):
        raise ValueError(f"latent index out of range for m={joint.m}")
    if len(idx) == joint.m:
        return joint._whole_mi
    if len(idx) == 1:
        return joint._single_mis[idx[0]]
    return _table_mi(joint.marginal(idx + [joint.m]))


def total_correlation(joint: DiscreteJoint) -> float:
    """TC(Z_{1:m}) = sum_j H(Z_j) - H(Z_{1:m}) over the latent marginal.

    Zero exactly when the latents are independent.  Each H(Z_j) is that of
    p(z_j) summed from the cached (z_j, x) pair table.
    """
    singles = sum(joint._pair_entropies[0])
    return max(0.0, singles - _entropy(joint._z_marginal.ravel()))


@dataclass(frozen=True, eq=False)
class CiDecoderTable:
    """Factorized-model posterior p_ci(x | z) for every z configuration.

    ``probs`` matches the joint's shape; rows at unsupported configurations
    (p_ci(z) = 0) are NaN and flagged False in ``defined``.
    """

    probs: np.ndarray
    defined: np.ndarray
    p_ci_z: np.ndarray


def _ci_posterior(joint: DiscreteJoint) -> tuple:
    """(p_ci(x|z), the rows where p_ci(z) > 0, p_ci(z)); rows where p_ci(z) = 0
    are zero.  p(x) prod_j p(z_j|x) is multiplied in the order of j, one
    latent axis at a time."""
    p_x = joint._x_marginal
    safe_px = np.where(p_x > 0.0, p_x, 1.0)
    ci = p_x
    for p_jx in joint._pair_marginals:
        ci = ci[..., None, :] * (p_jx / safe_px)
    p_ci_z = _sum_last(ci)
    bad = (joint._z_marginal > 0.0) & (p_ci_z <= 0.0)
    if np.any(bad):
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise AbsoluteContinuityError(
            f"p(z) > 0 but the factorized model gives zero mass at z={where}"
        )
    defined = p_ci_z > 0.0
    return ci / np.where(defined, p_ci_z, 1.0)[..., None], defined, p_ci_z


def ci_decoder_distribution(joint: DiscreteJoint) -> CiDecoderTable:
    """Posterior of X under the conditionally-independent reading of the
    encoder: p_ci(x|z) = p(x) prod_j p(z_j|x) / p_ci(z).

    Raises AbsoluteContinuityError if some z with p(z) > 0 has p_ci(z) = 0
    (cannot happen for tables that are exactly consistent, but guards
    rounded input).
    """
    q, defined, p_ci_z = _ci_posterior(joint)
    probs = np.where(defined[..., None], q, np.nan)
    return CiDecoderTable(probs=probs, defined=defined, p_ci_z=p_ci_z)


def discrete_ci_synergy(joint: DiscreteJoint) -> float:
    """Expected KL from the true posterior p(x|z) to the factorized-model
    posterior, weighted by p(z).  Nats, >= 0."""
    if joint.m == 1:
        # One latent: the factorized posterior IS the Bayes posterior, so the
        # divergence is identically zero (skip the rounding noise).
        return 0.0
    q, _, _ = _ci_posterior(joint)
    p_z = joint._z_marginal
    post = joint.probs / np.where(p_z > 0.0, p_z, 1.0)[..., None]
    # p(z, x) > 0 implies p(z) > 0, and q is zero on rows where p_ci(z) = 0.
    support = joint.probs > 0.0
    lacking = support & (q <= 0.0)
    if np.any(lacking):
        where = tuple(int(i) for i in np.argwhere(lacking.any(axis=-1))[0])
        raise AbsoluteContinuityError(
            f"true posterior has mass the factorized model lacks at z={where}"
        )
    # Off the support the ratio stays 1 and post is 0, so each term is 0.
    ratio = np.divide(post, q, out=np.ones_like(post), where=support)
    kl_per_z = _sum_last(post * np.log(ratio, out=ratio))
    return max(0.0, float((p_z * kl_per_z).sum()))


def discrete_wms_synergy(joint: DiscreteJoint) -> float:
    """Whole-minus-sum synergy I(Z_{1:m};X) - sum_j I(Z_j;X); may be negative."""
    return joint._whole_mi - sum(joint._single_mis)
