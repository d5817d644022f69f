import numpy as np
import pytest

from minsyn.decoder import (
    EPS,
    MA_MOMENTUM,
    STD_FLOOR,
    BinaryStats,
    GaussianStats,
    MovingAverageState,
    binary_batch_stats,
    binary_decoder_params,
    gaussian_batch_stats,
    gaussian_decoder_params,
    row_blocks,
    update_moving_average,
    widen_outputs,
)
from minsyn.gaussian import RHO_CLAMP, clamp, clamp_correlations
from minsyn.nn import TrainConfig, sigmoid, train_autoencoder

from _oracles import (
    affine_readout,
    bayes_posterior_binary,
    binary_readout_whole,
    gaussian_readout_whole,
    two_pass_correlations,
)


def _rho(stats: GaussianStats) -> np.ndarray:
    """The clamped correlations of every output with every latent."""
    return stats._rho_rows(slice(None))


def _conditionals(stats: BinaryStats) -> tuple:
    """p(Z_j = 1 | X_i = 1) and p(Z_j = 1 | X_i = 0) of every output."""
    rows = slice(None)
    return stats._conditional_rows(rows, True), stats._conditional_rows(rows, False)


class TestGaussianBatchStats:
    def test_self_correlation_clamped(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 3))
        stats = gaussian_batch_stats(x, x)
        assert np.allclose(np.diag(_rho(stats)), 1.0 - RHO_CLAMP)

    def test_constant_column_floored(self):
        x = np.ones((16, 2))
        z = np.random.default_rng(1).normal(size=(16, 2))
        stats = gaussian_batch_stats(x, z)
        assert np.all(stats.x_std >= 1e-6)
        assert np.allclose(_rho(stats), 0.0, atol=1e-9)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 4)) * 3 + 1
        z = rng.normal(size=(64, 3)) - 2
        stats = gaussian_batch_stats(x, z)
        rho, mx, sx, mz, sz = two_pass_correlations(x, z)
        assert np.allclose(_rho(stats), rho, atol=1e-12)
        assert np.allclose(stats.x_mean, mx, atol=1e-12)
        assert np.allclose(stats.x_std, sx, atol=1e-12)
        assert np.allclose(stats.z_mean, mz, atol=1e-12)
        assert np.allclose(stats.z_std, sz, atol=1e-12)

    def test_batch_too_small(self):
        with pytest.raises(ValueError, match="batch size"):
            gaussian_batch_stats(np.ones((1, 2)), np.ones((1, 2)))


class TestBinaryBatchStats:
    def test_degenerate_certainty_clamps(self):
        stats = binary_batch_stats(np.ones((8, 2)), np.ones((8, 3)))
        assert np.allclose(stats.px1, 1 - EPS)
        assert np.allclose(_conditionals(stats)[0], 1 - EPS)

    def test_independent_halves(self):
        x = np.full((10, 1), 0.5)
        z = np.full((10, 1), 0.5)
        stats = binary_batch_stats(x, z)
        q1, q0 = _conditionals(stats)
        assert q1[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert q0[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_counting_example(self):
        x = np.array([[1.0], [1.0], [0.0], [0.0]])
        z = np.array([[1.0], [0.0], [0.0], [0.0]])
        stats = binary_batch_stats(x, z)
        assert stats.px1[0] == pytest.approx(0.5)
        q1, q0 = _conditionals(stats)
        assert q1[0, 0] == pytest.approx(0.5)
        assert q0[0, 0] == pytest.approx(EPS)

    def test_entries_are_clipped_into_the_unit_interval(self):
        rng = np.random.default_rng(7)
        x, z = rng.normal(0.5, 0.6, size=(6, 4)), rng.normal(0.5, 0.6, size=(6, 3))
        assert (x < 0).any() and (x > 1).any() and (z < 0).any() and (z > 1).any()
        got = binary_batch_stats(x, z)
        xc, zc = np.clip(x, 0.0, 1.0), np.clip(z, 0.0, 1.0)
        assert np.array_equal(got.x_mean, xc.mean(axis=0))
        assert np.array_equal(got.z_mean, zc.mean(axis=0))
        assert np.array_equal(got.xz_mean, xc.T @ zc / 6)

    def test_unsupported_output_carries_no_evidence(self):
        # an output that is never on gives the latents nothing to condition
        # on: both conditionals fall back to the latent marginal
        x = np.array([[0.0], [0.0], [0.0], [0.0]])
        z = np.array([[1.0], [1.0], [0.0], [0.0]])
        stats = binary_batch_stats(x, z)
        q1, q0 = _conditionals(stats)
        assert q1[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert q0[0, 0] == pytest.approx(0.5, abs=1e-12)
        params = binary_decoder_params(stats)
        assert params.weights[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert params.bias[0] < 0  # prior still says "off"


class TestGaussianDecoderParams:
    def test_single_latent_identity(self):
        stats = GaussianStats(x_mean=np.zeros(1), z_mean=np.zeros(1),
                              x_sq_mean=np.ones(1), z_sq_mean=np.ones(1),
                              xz_mean=np.array([[0.9]]))
        params = gaussian_decoder_params(stats)
        assert params.weights[0, 0] == pytest.approx(0.9, abs=1e-12)
        assert params.bias[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_row_outputs_mean(self):
        stats = GaussianStats(x_mean=np.array([3.5]), z_mean=np.zeros(2),
                              x_sq_mean=np.array([3.5 ** 2 + 4.0]),
                              z_sq_mean=np.ones(2), xz_mean=np.zeros((1, 2)))
        params = gaussian_decoder_params(stats)
        z = np.random.default_rng(0).normal(size=(5, 2))
        assert np.allclose(affine_readout(params, z), 3.5, atol=1e-12)

    def test_reference_row(self):
        stats = GaussianStats(x_mean=np.zeros(1), z_mean=np.zeros(2),
                              x_sq_mean=np.ones(1), z_sq_mean=np.ones(2),
                              xz_mean=np.array([[0.5, 0.75]]))
        params = gaussian_decoder_params(stats)
        assert params.weights[0] == pytest.approx([0.25455, 0.65455], abs=1e-5)

    def test_destandardization(self):
        # raw-space decode must equal the standardized-space posterior mean
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 2)) * np.array([2.0, 0.5]) + np.array([1.0, -3.0])
        z = rng.normal(size=(200, 3)) * 1.7 + 0.4
        stats = gaussian_batch_stats(x, z)
        params = gaussian_decoder_params(stats)
        z_unit = (z - stats.z_mean) / stats.z_std
        rho = _rho(stats)
        prec = rho ** 2 / (1 - rho ** 2)
        u = (rho / (1 - rho ** 2)) / (1 + prec.sum(axis=1))[:, None]
        expected = stats.x_mean + stats.x_std * (z_unit @ u.T)
        assert np.allclose(affine_readout(params, z), expected, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x, z = rng.normal(size=(32, 2)), rng.normal(size=(32, 2))
        s = gaussian_batch_stats(x, z)
        a = gaussian_decoder_params(s)
        b = gaussian_decoder_params(gaussian_batch_stats(x, z))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


class TestBinaryDecoderParams:
    def test_independent_latent(self):
        stats = BinaryStats(x_mean=np.array([0.5]), z_mean=np.array([0.5]),
                            xz_mean=np.array([[0.25]]))
        params = binary_decoder_params(stats)
        assert params.weights[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert params.bias[0] == pytest.approx(0.0, abs=1e-12)
        assert sigmoid(affine_readout(params, np.array([[1.0]])))[0, 0] == pytest.approx(0.5)

    def test_bayes_reference(self):
        # p(x)=0.5, p(z=1|x=1)=0.8, p(z=1|x=0)=0.2 -> E[xz]=0.4
        stats = BinaryStats(x_mean=np.array([0.5]), z_mean=np.array([0.5]),
                            xz_mean=np.array([[0.4]]))
        params = binary_decoder_params(stats)
        assert params.weights[0, 0] == pytest.approx(np.log(16), abs=1e-12)
        assert params.bias[0] == pytest.approx(-np.log(4), abs=1e-12)
        posterior = sigmoid(affine_readout(params, np.array([[1.0]])))[0, 0]
        assert posterior == pytest.approx(0.8, abs=1e-12)

    def test_deterministic_copy_clamped(self):
        stats = binary_batch_stats(np.array([[1.0], [0.0]] * 4),
                                   np.array([[1.0], [0.0]] * 4))
        params = binary_decoder_params(stats)
        expected = np.log((1 - EPS) ** 2 / EPS ** 2)
        assert params.weights[0, 0] == pytest.approx(expected, abs=1e-9)
        assert params.weights[0, 0] == pytest.approx(18.420, abs=1e-3)

    def test_matches_enumerated_bayes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            px1 = rng.uniform(0.05, 0.95)
            q1 = rng.uniform(0.05, 0.95, size=m)
            q0 = rng.uniform(0.05, 0.95, size=m)
            pz1 = px1 * q1 + (1 - px1) * q0
            stats = BinaryStats(x_mean=np.array([px1]), z_mean=pz1,
                                xz_mean=(px1 * q1)[None, :])
            params = binary_decoder_params(stats)
            for bits in range(2 ** m):
                z = np.array([(bits >> j) & 1 for j in range(m)], dtype=float)
                ours = sigmoid(affine_readout(params, z[None, :]))[0, 0]
                ref = bayes_posterior_binary(px1, q1, q0, z.astype(int))
                assert ours == pytest.approx(ref, abs=1e-9)

    def test_all_finite_on_clamped_domain(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = (rng.random((6, 3)) > rng.random()).astype(float)
            z = (rng.random((6, 4)) > rng.random()).astype(float)
            params = binary_decoder_params(binary_batch_stats(x, z))
            assert np.isfinite(params.weights).all()
            assert np.isfinite(params.bias).all()


class TestStatisticsShapes:
    """Each moment is checked against its axes in ``MOMENTS``, and a moment
    of the wrong shape is named."""

    @pytest.mark.parametrize("kind", ["binary", "gaussian"])
    def test_each_moment_of_the_wrong_shape_is_named(self, kind):
        stats = _random_stats(kind, 30)
        good = {name: getattr(stats, name) for name in stats.MOMENTS}
        assert type(stats)(**good).readout.weights.shape == (stats.n, stats.m)
        for name, axes in stats.MOMENTS.items():
            value = good[name]
            bad = [value[..., None]]  # same size, one axis too many
            if name not in ("x_mean", "z_mean"):  # those two set n and m
                bad.append(value[:-1])
            for wrong in bad:
                with pytest.raises(ValueError, match=f"^{name} must have shape "):
                    type(stats)(**{**good, name: wrong})

    @pytest.mark.parametrize("kind", ["binary", "gaussian"])
    def test_two_dimensional_means_are_rejected(self, kind):
        # six outputs given as a (2, 3) x_mean against a (6, m) xz_mean
        stats = _random_stats(kind, 31)
        moments = {name: getattr(stats, name)[:6] if axes[0] == "n" else getattr(stats, name)
                   for name, axes in stats.MOMENTS.items()}
        moments["x_mean"] = moments["x_mean"].reshape(2, 3)
        with pytest.raises(ValueError, match=r"^x_mean must have shape \(6,\), not \(2, 3\)"):
            type(stats)(**moments)

    @pytest.mark.parametrize("kind", ["binary", "gaussian"])
    def test_missing_or_unknown_moments_are_a_type_error(self, kind):
        stats = _random_stats(kind, 32)
        good = {name: getattr(stats, name) for name in stats.MOMENTS}
        with pytest.raises(TypeError, match="takes the moments"):
            type(stats)(**{name: v for name, v in good.items() if name != "xz_mean"})
        with pytest.raises(TypeError, match="takes the moments"):
            type(stats)(**good, xx_mean=good["x_mean"])

    def test_statistics_are_immutable(self):
        stats = _random_stats("binary", 33)
        with pytest.raises(AttributeError, match="immutable"):
            stats.x_mean = stats.x_mean.copy()


class TestWidenedOutputs:
    """Statistics of one output per group of equal outputs, widened to every
    output; the blank outputs, 0 in every sample, form one of the groups."""

    GROUP = np.array([0, 1, 0, 2, 3, 4, 4, 2, 5, 1, 2])  # 2 is the blank group

    def _batches(self, kind):
        rng = np.random.default_rng(23)
        x, z = (rng.random((16, 6)) < 0.5).astype(float), rng.random((16, 3))
        x[:, 2] = 0.0
        batch_stats = binary_batch_stats if kind == "binary" else gaussian_batch_stats
        return batch_stats(x, z), batch_stats(x[:, self.GROUP], z)

    @pytest.mark.parametrize("kind", ["binary", "gaussian"])
    def test_widened_statistics_are_those_of_the_full_batch(self, kind):
        grouped, ref = self._batches(kind)
        widened = widen_outputs(grouped, self.GROUP)
        assert type(widened) is type(ref)
        for name, axes in ref.MOMENTS.items():
            ours, want = getattr(widened, name), getattr(ref, name)
            assert ours.shape == want.shape, name
            np.testing.assert_allclose(ours, want, rtol=1e-12, atol=0, err_msg=name)
            if axes[0] == "n":
                assert not ours[self.GROUP == 2].any(), name

    @pytest.mark.parametrize("kind", ["binary", "gaussian"])
    def test_every_output_reads_out_its_groups_row(self, kind):
        grouped, _ = self._batches(kind)
        ours, want = widen_outputs(grouped, self.GROUP).readout, grouped.readout
        for i, g in enumerate(self.GROUP):
            assert ours.weights[i].tobytes() == want.weights[g].tobytes(), i
            assert ours.bias[i].tobytes() == want.bias[g].tobytes(), i
        assert not ours.weights[self.GROUP == 2].any()


def _random_stats(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "binary":
        x = (rng.random((16, 30)) < rng.random(30)).astype(float)
        return binary_batch_stats(x, rng.random((16, 4)))
    return gaussian_batch_stats(rng.normal(size=(16, 30)), rng.normal(size=(16, 4)))


READOUTS = {"binary": binary_decoder_params, "gaussian": gaussian_decoder_params}


def _same_params(a, b) -> bool:
    return a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()


class TestReadoutCache:
    @pytest.mark.parametrize("kind", ["binary", "gaussian"])
    def test_second_call_is_the_cached_readout(self, kind):
        stats = _random_stats(kind, 20)
        first = READOUTS[kind](stats)
        assert READOUTS[kind](stats) is first
        fresh = type(stats)(**{name: getattr(stats, name).copy() for name in stats.MOMENTS})
        rebuilt = READOUTS[kind](fresh)
        assert rebuilt is not first and _same_params(rebuilt, first)

    @pytest.mark.parametrize("kind", ["binary", "gaussian"])
    def test_cached_arrays_are_read_only(self, kind):
        stats = _random_stats(kind, 21)
        params = READOUTS[kind](stats)
        views = [params.weights, params.bias, stats.x_std if kind == "gaussian" else stats.px1]
        for arr in views:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("decoder_kind", ["minsyn_binary", "minsyn_gaussian"])
    def test_weight_matrix_is_a_copy(self, decoder_kind):
        data = (np.random.default_rng(22).random((8, 6)) < 0.5).astype(float)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=0, lr=0.01,
                          decoder_kind=decoder_kind, encoder_spec=((3, "sigmoid"),))
        model, _ = train_autoencoder(cfg, data)
        before = model.decoder_params_from_average().weights.copy()
        w = model.decoder_weight_matrix()
        w += 1.0
        assert np.array_equal(model.decoder_params_from_average().weights, before)
        assert np.array_equal(model.decoder_weight_matrix(), before)

    @pytest.mark.parametrize("kind", ["binary", "gaussian"])
    def test_moving_average_update_rebuilds_the_readout(self, kind):
        s1, s2 = _random_stats(kind, 23), _random_stats(kind, 24)
        state = update_moving_average(MovingAverageState(stats=None), s1)
        old = READOUTS[kind](state.stats)
        state = update_moving_average(state, s2)
        new = READOUTS[kind](state.stats)
        assert not np.array_equal(new.weights, old.weights)
        mu = MA_MOMENTUM
        blended = type(s1)(**{name: mu * getattr(s1, name) + (1.0 - mu) * getattr(s2, name)
                              for name in s1.MOMENTS})
        assert _same_params(new, READOUTS[kind](blended))


def _wide_batch(rng, n=1000, m=128, b=200):
    """Binary outputs with unsupported (constant) columns and columns that
    copy a latent exactly, against latents in [0, 1]."""
    z = rng.random((b, m))
    z[:, :4] = (z[:, :4] < 0.5)
    x = (rng.random((b, n)) < rng.random(n)).astype(float)
    x[:, :10] = 0.0
    x[:, 10:20] = 1.0
    x[:, 20:24] = z[:, :4]
    return x, z


class TestRowBlockedReadout:
    """n = 1000 outputs of m = 128 latents span several row blocks with a
    ragged last one; the blocked tables must equal one whole-array pass."""

    def test_spans_several_ragged_blocks(self):
        blocks = row_blocks(1000, 8 * 128 * 8)
        assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < blocks[0].stop

    def test_binary_equals_whole_array_oracle(self):
        x, z = _wide_batch(np.random.default_rng(30))
        stats = binary_batch_stats(x, z)
        assert not np.all((stats.x_mean >= EPS) & (stats.x_mean <= 1.0 - EPS))
        q1, q0, weights, bias = binary_readout_whole(
            stats.x_mean, stats.z_mean, stats.xz_mean, EPS)
        assert np.any(q1 == 1.0 - EPS) and np.any(q0 == EPS)
        params = binary_decoder_params(stats)
        assert params.weights.tobytes() == weights.tobytes()
        assert params.bias.tobytes() == bias.tobytes()
        got_q1, got_q0 = _conditionals(stats)
        assert got_q1.tobytes() == q1.tobytes()
        assert got_q0.tobytes() == q0.tobytes()

    def test_gaussian_equals_whole_array_oracle(self):
        x, z = _wide_batch(np.random.default_rng(31))
        stats = gaussian_batch_stats(x, z)
        rho, weights, bias = gaussian_readout_whole(
            stats.x_mean, stats.z_mean, stats.x_sq_mean, stats.z_sq_mean, stats.xz_mean,
            RHO_CLAMP, STD_FLOOR)
        assert np.any(np.abs(rho) == 1.0 - RHO_CLAMP)
        params = gaussian_decoder_params(stats)
        assert params.weights.tobytes() == weights.tobytes()
        assert params.bias.tobytes() == bias.tobytes()
        assert _rho(stats).tobytes() == rho.tobytes()

    def test_row_blocks_cover_in_order(self):
        for rows, row_bytes, min_rows in ((0, 8, 1), (1, 8, 1), (10, 2 ** 21, 1),
                                          (1000, 8192, 1), (2000, 25088, 62),
                                          (129, 75264, 48), (7, 0, 1)):
            blocks = row_blocks(rows, row_bytes, min_rows)
            assert blocks[0].start == 0 and blocks[-1].stop == rows
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            if len(blocks) > 1:
                assert min(b.stop - b.start for b in blocks) >= min_rows
        assert [b.stop for b in row_blocks(2000, 25088, 62)][-2:] == [1909, 2000]


def _word_batch(rng, b=16, n=49, m=9):
    """A word-shaped batch, one readout block: blank (unsupported) and
    always-on columns, columns that copy a latent (conditionals and
    correlations at their clamps), and latents in [0, 1]."""
    z = rng.random((b, m))
    z[:, :2] = z[:, :2] < 0.5
    x = (rng.random((b, n)) < rng.random(n)).astype(float)
    x[:, :3] = 0.0
    x[:, 3] = 1.0
    x[:, 4:6] = z[:, :2]
    return x, z


def _with_edge_entries(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` with -0.0, NaN, out-of-range and boundary entries, and
    a column of -0.0, whose sign a column sum keeps."""
    a = a.copy()
    a[0, :4] = [-0.0, np.nan, -0.25, 1.5]
    a[1, :4] = [0.0, 1.0, -0.0, -np.nan]
    a[:, 6] = -0.0
    return a


class TestLeanReadoutBytes:
    """The readouts and batch statistics take their ufuncs directly; they
    must give the bytes of the whole-array oracles and of np.clip."""

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (EPS, 1.0 - EPS),
                                       (-(1.0 - RHO_CLAMP), 1.0 - RHO_CLAMP)])
    def test_clamp_is_np_clip(self, lo, hi):
        # Long enough for the vector loops and their tails.
        v = np.array([-0.0, 0.0, np.nan, -np.nan, -1.0, 2.0, lo, hi, np.inf, -np.inf, 0.5] * 7)
        want = np.clip(v, lo, hi).tobytes()
        assert clamp(v, lo, hi).tobytes() == want
        assert clamp(v, lo, hi, out=v).tobytes() == want and v.tobytes() == want

    def test_correlation_clamp_is_np_clip(self):
        v = np.array([-0.0, 0.0, np.nan, -1.0, 1.0, 2.0, -0.99995, 0.99995, 0.5] * 7)
        want = np.clip(v, -(1.0 - RHO_CLAMP), 1.0 - RHO_CLAMP).tobytes()
        assert clamp_correlations(v).tobytes() == want
        assert clamp_correlations(v, out=v) is v and v.tobytes() == want

    def test_binary_readout_equals_oracle(self):
        x, z = _word_batch(np.random.default_rng(40))
        stats = binary_batch_stats(x, z)
        supported = (stats.x_mean >= EPS) & (stats.x_mean <= 1.0 - EPS)
        assert not supported.all() and supported.any()
        q1, q0, weights, bias = binary_readout_whole(
            stats.x_mean, stats.z_mean, stats.xz_mean, EPS)
        assert np.any(q1 == 1.0 - EPS) and np.any(q0 == EPS)
        params = binary_decoder_params(stats)
        assert np.array_equal(params.weights, weights) and np.array_equal(params.bias, bias)
        got_q1, got_q0 = _conditionals(stats)
        assert got_q1.tobytes() == q1.tobytes() and got_q0.tobytes() == q0.tobytes()
        assert stats._supported.tobytes() == supported.tobytes()
        assert stats.px1.tobytes() == np.clip(stats.x_mean, EPS, 1.0 - EPS).tobytes()

    def test_gaussian_readout_equals_oracle(self):
        x, z = _word_batch(np.random.default_rng(41))
        stats = gaussian_batch_stats(x, z)
        rho, weights, bias = gaussian_readout_whole(
            stats.x_mean, stats.z_mean, stats.x_sq_mean, stats.z_sq_mean, stats.xz_mean,
            RHO_CLAMP, STD_FLOOR)
        assert np.any(np.abs(rho) == 1.0 - RHO_CLAMP) and np.any(stats.x_std == STD_FLOOR)
        params = gaussian_decoder_params(stats)
        assert np.array_equal(params.weights, weights) and np.array_equal(params.bias, bias)
        assert _rho(stats).tobytes() == rho.tobytes()

    def test_binary_batch_statistics_clip_like_np_clip(self):
        x, z = _word_batch(np.random.default_rng(42))
        x, z = _with_edge_entries(x), _with_edge_entries(z)
        stats = binary_batch_stats(x, z)
        xc, zc = np.clip(x, 0.0, 1.0), np.clip(z, 0.0, 1.0)
        assert stats.x_mean.tobytes() == xc.mean(axis=0).tobytes()
        assert stats.z_mean.tobytes() == zc.mean(axis=0).tobytes()
        assert stats.xz_mean.tobytes() == (xc.T @ zc / x.shape[0]).tobytes()
        assert np.isnan(stats.x_mean[1]) and not stats._supported[1]
        assert stats.px1.tobytes() == np.clip(stats.x_mean, EPS, 1.0 - EPS).tobytes()
        with np.errstate(invalid="ignore"):
            q1, q0, _, _ = binary_readout_whole(stats.x_mean, stats.z_mean, stats.xz_mean, EPS)
        got_q1, got_q0 = _conditionals(stats)
        assert got_q1.tobytes() == q1.tobytes() and got_q0.tobytes() == q0.tobytes()

    def test_gaussian_batch_statistics_equal_mean_and_clip(self):
        x, z = _word_batch(np.random.default_rng(43))
        x, z = _with_edge_entries(x), _with_edge_entries(z)
        stats = gaussian_batch_stats(x, z)
        assert stats.x_mean.tobytes() == x.mean(axis=0).tobytes()
        assert stats.x_sq_mean.tobytes() == (x ** 2).mean(axis=0).tobytes()
        assert stats.xz_mean.tobytes() == (x.T @ z / x.shape[0]).tobytes()
        with np.errstate(invalid="ignore"):
            rho, _, _ = gaussian_readout_whole(
                stats.x_mean, stats.z_mean, stats.x_sq_mean, stats.z_sq_mean,
                stats.xz_mean, RHO_CLAMP, STD_FLOOR)
        assert np.isnan(rho).any()
        assert _rho(stats).tobytes() == rho.tobytes()


class TestMovingAverage:
    def _stats(self, v: float) -> BinaryStats:
        return BinaryStats(x_mean=np.array([v]), z_mean=np.array([v]),
                           xz_mean=np.array([[v]]))

    def test_first_update_copies(self):
        state = update_moving_average(MovingAverageState(stats=None), self._stats(0.7))
        assert state.step_count == 1
        assert state.stats.x_mean[0] == 0.7

    def test_constant_stream_fixpoint(self):
        state = MovingAverageState(stats=None)
        for _ in range(10):
            state = update_moving_average(state, self._stats(0.3))
        assert state.stats.x_mean[0] == pytest.approx(0.3, abs=1e-15)

    def test_hand_recurrence(self):
        state = MovingAverageState(stats=None)
        state = update_moving_average(state, self._stats(0.0))
        state = update_moving_average(state, self._stats(1.0))
        assert state.stats.x_mean[0] == pytest.approx(0.01, abs=1e-15)
        assert state.step_count == 2

    def test_geometric_identity(self):
        mu = MA_MOMENTUM
        b0, b = 0.2, 0.8
        state = update_moving_average(MovingAverageState(stats=None), self._stats(b0))
        k = 7
        for _ in range(k):
            state = update_moving_average(state, self._stats(b))
        expected = mu ** k * b0 + (1 - mu ** k) * b
        assert state.stats.x_mean[0] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        state = update_moving_average(MovingAverageState(stats=None), self._stats(0.5))
        other = BinaryStats(x_mean=np.zeros(2), z_mean=np.zeros(1),
                            xz_mean=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="shape"):
            update_moving_average(state, other)

    def test_type_mismatch(self):
        state = update_moving_average(MovingAverageState(stats=None), self._stats(0.5))
        g = GaussianStats(x_mean=np.zeros(1), z_mean=np.zeros(1),
                          x_sq_mean=np.ones(1), z_sq_mean=np.ones(1),
                          xz_mean=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="type"):
            update_moving_average(state, g)

    def test_gaussian_derived_recomputed_from_raw(self):
        rng = np.random.default_rng(9)
        x1, z1 = rng.normal(size=(32, 2)), rng.normal(size=(32, 2))
        x2, z2 = rng.normal(size=(32, 2)) + 5, rng.normal(size=(32, 2)) * 2
        s1, s2 = gaussian_batch_stats(x1, z1), gaussian_batch_stats(x2, z2)
        mu = MA_MOMENTUM
        state = update_moving_average(MovingAverageState(stats=None), s1)
        state = update_moving_average(state, s2)
        blended = state.stats
        # raw moments blend linearly ...
        assert np.allclose(blended.xz_mean, mu * s1.xz_mean + (1 - mu) * s2.xz_mean)
        # ... but the correlation is recomputed, not the average of rhos
        naive = mu * _rho(s1) + (1 - mu) * _rho(s2)
        assert not np.allclose(_rho(blended), naive, atol=1e-3)
