import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsyn import discrete
from minsyn.discrete import (
    MAX_TEXT_CELLS,
    DiscreteJoint,
    _sum_last,
    _table_mi,
    ci_decoder_distribution,
    discrete_ci_synergy,
    discrete_wms_synergy,
    entropy,
    mutual_information,
    total_correlation,
)

from _oracles import literal_ci_synergy, to_text_per_axis, total_correlation_per_axis

LN2 = np.log(2.0)


def random_joint(rng, m=2, nx=2, arity=2) -> DiscreteJoint:
    p = rng.random(size=(arity,) * m + (nx,)) + 1e-3
    return DiscreteJoint(p / p.sum())


def random_factorized_joint(rng, m=3, nx=2, arity=2) -> DiscreteJoint:
    px = rng.random(nx) + 0.1
    px /= px.sum()
    conds = []
    for _ in range(m):
        c = rng.random((arity, nx)) + 0.05
        conds.append(c / c.sum(axis=0, keepdims=True))
    return DiscreteJoint.from_conditionals(px, conds)


class TestEntropy:
    def test_fair_bit(self):
        assert entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)

    def test_deterministic(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_hand_value(self):
        expected = -(0.8 * np.log(0.8) + 0.2 * np.log(0.2))
        assert entropy([0.8, 0.2]) == pytest.approx(expected, abs=1e-15)
        assert entropy([0.8, 0.2]) == pytest.approx(0.50040, abs=1e-5)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])

    @given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_bounded(self, raw):
        p = np.array(raw) / sum(raw)
        h = entropy(p)
        assert 0.0 <= h <= np.log(p.size) + 1e-12


class TestJointValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteJoint(np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DiscreteJoint(np.full((2, 2), 0.3))

    def test_rejects_too_many_latents(self):
        with pytest.raises(ValueError):
            DiscreteJoint(np.full((2,) * 14, 1.0 / 2 ** 14))

    @pytest.mark.parametrize("axes", [[5], [-1], [0, 7], [3], [-1, 2]])
    def test_marginal_rejects_axes_out_of_range(self, axes):
        with pytest.raises(ValueError, match=r"out of range for axes 0\.\.2"):
            DiscreteJoint.xor().marginal(axes)

    def test_text_round_trip(self):
        rng = np.random.default_rng(0)
        joint = random_joint(rng, m=2)
        again = DiscreteJoint.from_text(joint.to_text())
        assert np.allclose(joint.probs, again.probs, atol=1e-15)

    def test_text_parsing(self):
        txt = """
        # XOR gate
        0 0 0 0.25
        0 1 1 0.25
        1 0 1 0.25
        1 1 0 0.25
        """
        joint = DiscreteJoint.from_text(txt)
        assert joint.arities == (2, 2, 2)
        assert np.allclose(joint.probs, DiscreteJoint.xor().probs)


class TestMutualInformation:
    def test_xor_single_input_uninformative(self):
        xor = DiscreteJoint.xor()
        assert mutual_information(xor, [0]) == 0.0
        assert mutual_information(xor, [1]) == 0.0

    def test_xor_pair_determines_target(self):
        assert mutual_information(DiscreteJoint.xor(), [0, 1]) == pytest.approx(
            LN2, abs=1e-12)

    def test_independent_target(self):
        p = np.full((2, 2), 0.25)
        assert mutual_information(DiscreteJoint(p), [0]) == pytest.approx(0.0, abs=1e-15)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(DiscreteJoint.xor(), [])

    def test_monotone_in_group(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            joint = random_joint(rng, m=3)
            whole = mutual_information(joint, [0, 1, 2])
            for sub in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
                assert whole >= mutual_information(joint, sub) - 1e-12


class TestTotalCorrelation:
    def test_independent_bits(self):
        assert total_correlation(DiscreteJoint(np.full((2, 2, 2), 0.125))) == pytest.approx(
            0.0, abs=1e-12)

    def test_copied_bit(self):
        p = np.zeros((2, 2, 2))
        p[0, 0, :] = 0.25
        p[1, 1, :] = 0.25
        assert total_correlation(DiscreteJoint(p)) == pytest.approx(LN2, abs=1e-12)

    def test_xor_inputs_independent(self):
        assert total_correlation(DiscreteJoint.xor()) == pytest.approx(0.0, abs=1e-12)


class TestCiDecoder:
    def test_factorized_recovers_true_posterior(self):
        rng = np.random.default_rng(4)
        joint = random_factorized_joint(rng, m=3)
        table = ci_decoder_distribution(joint)
        pz = joint.marginal(range(joint.m))
        true_post = joint.probs / pz[..., None]
        assert np.allclose(table.probs, true_post, atol=1e-12)

    def test_xor_posterior_is_prior(self):
        table = ci_decoder_distribution(DiscreteJoint.xor())
        assert np.allclose(table.probs, 0.5, atol=1e-15)

    def test_single_latent_bayes(self):
        rng = np.random.default_rng(6)
        joint = random_joint(rng, m=1)
        table = ci_decoder_distribution(joint)
        pz = joint.marginal(range(joint.m))
        assert np.allclose(table.probs, joint.probs / pz[..., None], atol=1e-12)

    def test_rows_normalized(self):
        rng = np.random.default_rng(8)
        joint = random_joint(rng, m=2, nx=3, arity=3)
        table = ci_decoder_distribution(joint)
        sums = np.nansum(table.probs, axis=-1)
        assert np.allclose(sums[table.defined], 1.0, atol=1e-12)

    def test_zero_support_flagged(self):
        p = np.zeros((2, 2, 2))
        # z1 = z2 = x deterministically: the conditionals are degenerate, so
        # the factorized model has no mass on mixed configurations either
        p[0, 0, 0] = p[1, 1, 1] = 0.5
        table = ci_decoder_distribution(DiscreteJoint(p))
        assert table.defined[0, 0] and table.defined[1, 1]
        assert not table.defined[0, 1] and not table.defined[1, 0]
        assert np.isnan(table.probs[0, 1]).all()


class TestCiSynergy:
    def test_xor_is_one_bit(self):
        assert discrete_ci_synergy(DiscreteJoint.xor()) == pytest.approx(LN2, abs=1e-12)

    def test_factorized_zero(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 3, 4):
            joint = random_factorized_joint(rng, m=m)
            assert discrete_ci_synergy(joint) <= 1e-12

    def test_matches_literal_summation(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            joint = random_joint(rng, m=2)
            assert discrete_ci_synergy(joint) == pytest.approx(
                literal_ci_synergy(joint.probs), abs=1e-12)

    def test_single_latent_exact_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            joint = random_joint(rng, m=1, nx=3, arity=4)
            assert discrete_ci_synergy(joint) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            joint = random_joint(rng, m=3)
            assert discrete_ci_synergy(joint) >= 0.0


class TestWmsSynergy:
    def test_xor(self):
        assert discrete_wms_synergy(DiscreteJoint.xor()) == pytest.approx(LN2, abs=1e-12)

    def test_redundant_copies_negative(self):
        # Z1 = Z2 = X fair bit: whole ln2, singles ln2 each
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = p[1, 1, 1] = 0.5
        assert discrete_wms_synergy(DiscreteJoint(p)) == pytest.approx(-LN2, abs=1e-12)

    def test_independent_target_zero(self):
        p = np.full((2, 2, 2), 0.125)
        assert discrete_wms_synergy(DiscreteJoint(p)) == pytest.approx(0.0, abs=1e-12)


class TestRelabelingInvariance:
    def test_symbol_relabeling_and_permutation(self):
        rng = np.random.default_rng(13)
        joint = random_joint(rng, m=2, nx=2, arity=3)
        flipped = DiscreteJoint(joint.probs[::-1, :, :])  # relabel z1 symbols
        swapped = DiscreteJoint(np.transpose(joint.probs, (1, 0, 2)))
        for f in (discrete_ci_synergy, discrete_wms_synergy, total_correlation):
            assert f(joint) == pytest.approx(f(flipped), abs=1e-12)
            assert f(joint) == pytest.approx(f(swapped), abs=1e-12)


def mixed_joint(rng, arities, zero_fraction=0.3) -> DiscreteJoint:
    """Random joint with zero cells; the last cell stays positive, so the
    text format infers every arity back."""
    p = rng.random(arities)
    p[rng.random(arities) < zero_fraction] = 0.0
    p[(-1,) * len(arities)] = 0.5
    return DiscreteJoint(p / p.sum())


MIXED_ARITIES = [(2, 3), (3, 1, 2), (4, 2, 3), (2, 3, 2, 4), (1, 3, 1, 2), (2,) * 6 + (3,)]


class TestTextFormat:
    """The plain-text table format, pinned byte for byte."""

    @pytest.mark.parametrize("arities", MIXED_ARITIES)
    def test_round_trip_is_byte_exact(self, arities):
        joint = mixed_joint(np.random.default_rng(len(arities)), arities)
        assert (joint.probs == 0.0).any()
        text = joint.to_text()
        again = DiscreteJoint.from_text(text)
        assert again.arities == joint.arities
        assert again.probs.tobytes() == joint.probs.tobytes()
        assert again.to_text() == text

    @pytest.mark.parametrize("zero_fraction", [0.0, 0.3, 0.9, 0.99])
    def test_to_text_equals_the_per_axis_lines(self, zero_fraction):
        rng = np.random.default_rng(int(100 * zero_fraction))
        shapes = MIXED_ARITIES + [(2,) * 9, (3,) * 7, (11, 2), (3, 12, 1), (1, 1), (5, 1, 5, 2)]
        for arities in shapes:
            joint = mixed_joint(rng, arities, zero_fraction)
            assert joint.to_text() == to_text_per_axis(joint.probs)

    def test_to_text_literal(self):
        p = np.zeros((2, 3, 2))
        p[0, 0, 0], p[0, 1, 0], p[0, 1, 1] = 0.1, 0.2, 0.05
        p[1, 0, 0], p[1, 0, 1], p[1, 1, 1], p[1, 2, 0] = 0.15, 0.25, 0.125, 0.125
        assert DiscreteJoint(p).to_text() == (
            "0 0 0 0.1\n0 1 0 0.2\n0 1 1 0.05\n1 0 0 0.15\n"
            "1 0 1 0.25\n1 1 1 0.125\n1 2 0 0.125\n")
        q = np.zeros((11, 2))
        q[0, 0], q[3, 1], q[10, 1] = 1 / 3, 1 / 6, 0.5
        assert DiscreteJoint(q).to_text() == (
            "0 0 0.3333333333333333\n3 1 0.16666666666666666\n10 1 0.5\n")

    def test_duplicate_lines_sum_in_file_order(self):
        joint = DiscreteJoint.from_text("0 0 0.1\n1 1 0.4\n0 0 0.2\n0 0 0.3\n")
        # (0.1 + 0.2) + 0.3 rounds to 0.6000000000000001; 0.1 + (0.2 + 0.3) is 0.6
        assert repr(float(joint.probs[0, 0])) == "0.6000000000000001"
        assert joint.probs[1, 1] == 0.4
        assert joint.probs[0, 1] == joint.probs[1, 0] == 0.0

    def test_comments_and_blank_lines_ignored(self):
        plain = "0 0 0.25\n0 1 0.25\n1 0 0.5\n"
        noisy = ("# a comment\n\n   \n  # indented comment\n0 0 0.25\n"
                 "\t0\t1   0.25  \n\n#0 0 0.9\n1 0 0.5\n# trailing\n")
        a, b = DiscreteJoint.from_text(plain), DiscreteJoint.from_text(noisy)
        assert a.arities == b.arities == (2, 2)
        assert a.probs.tobytes() == b.probs.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("0 0 0.5\n0 1\n", "line 2: need at least z, x and a probability"),
        ("0 0 0.5\n\n0 a 0.5\n", "line 3: invalid literal for int() with base 10: 'a'"),
        ("0 0 0.5\n0 1 x\n", "line 2: could not convert string to float: 'x'"),
        ("# c\n0 0 0.5\n0 -1 0.5\n", "line 3: negative symbol"),
        ("0 0 0.5\n0 0 1 0.5\n", "inconsistent number of variables across lines"),
        ("", "empty table"),
        ("# only a comment\n\n", "empty table"),
    ])
    def test_errors_keep_type_message_and_line(self, text, message):
        with pytest.raises(ValueError) as err:
            DiscreteJoint.from_text(text)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        # a negative symbol on line 1 beats a bad token on line 2
        ("0 -1 0.5\n0 a 0.5\n", "line 1: negative symbol"),
        # within a line every token is converted before the sign check
        ("-1 a 0.5\n", "line 1: invalid literal for int() with base 10: 'a'"),
        # widths are compared only after every line has parsed
        ("0 0 0.5\n0 0 1 0.5\n1 b 0.1\n", "line 3: invalid literal for int() with base 10: 'b'"),
        ("0 0 0.5\n0 1\n0 a 0.5\n", "line 2: need at least z, x and a probability"),
    ])
    def test_first_bad_line_wins(self, text, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            DiscreteJoint.from_text(text)

    @pytest.mark.parametrize("text, line", [
        ("100000 100000 1.0\n", 1),
        ("99999999999999999999 0 1.0", 1),
        # line 3 takes 4097 x 4096 cells past the cap; comments still count as lines
        ("# c\n0 0 0.5\n4096 4095 0.25\n\n1 1 0.25\n", 3),
        ("0 0 0.5\n4095 0 0.25\n0 4096 0.25\n", 3),
    ])
    def test_table_size_is_capped_before_allocating(self, text, line):
        assert 4096 * 4096 == MAX_TEXT_CELLS
        with pytest.raises(ValueError, match=(f"^line {line}: the table would have more than "
                                              f"{MAX_TEXT_CELLS} cells$")) as err:
            DiscreteJoint.from_text(text)
        assert type(err.value) is ValueError

    def test_a_table_of_exactly_the_cap_is_read(self, monkeypatch):
        monkeypatch.setattr(discrete, "MAX_TEXT_CELLS", 12)
        assert DiscreteJoint.from_text("0 0 0.5\n3 2 0.5\n").arities == (4, 3)
        with pytest.raises(ValueError, match="^line 2: the table would have more than 12 cells$"):
            DiscreteJoint.from_text("0 0 0.5\n3 3 0.5\n")
        # line 2 reaches the cap and line 3 passes it
        with pytest.raises(ValueError, match="^line 3: the table would have more than 12 cells$"):
            DiscreteJoint.from_text("0 0 0.5\n3 2 0.25\n3 3 0.25\n")

    def test_parse_errors_precede_the_size_cap(self):
        with pytest.raises(ValueError, match="^line 2: negative symbol$"):
            DiscreteJoint.from_text("100000 100000 1.0\n0 -1 0.5\n")
        with pytest.raises(ValueError, match="^inconsistent number of variables"):
            DiscreteJoint.from_text("100000 100000 1.0\n0 0 0 0.5\n")


class TestNonFinite:
    def test_joint_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                DiscreteJoint(np.array([[bad, 0.5], [0.25, 0.25]]))

    def test_entropy_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            entropy([np.nan, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            entropy([np.inf, 0.0])

    def test_from_text_rejects_non_finite_on_its_line(self):
        with pytest.raises(ValueError, match="^line 1: .*non-finite"):
            DiscreteJoint.from_text("0 0 nan\n0 1 0.5\n1 0 0.25\n1 1 0.25\n")
        with pytest.raises(ValueError, match="^line 3: .*non-finite"):
            DiscreteJoint.from_text("0 0 0.5\n# c\n0 1 inf\n")


def _whole_mi(joint):
    return mutual_information(joint, range(joint.m))


def _first_mi(joint):
    return mutual_information(joint, [0])


MEASURES = (discrete_ci_synergy, discrete_wms_synergy, total_correlation, _whole_mi, _first_mi)
CACHES = ("_x_marginal", "_z_marginal", "_pair_marginals", "_whole_mi", "_single_mis")


def cache_test_tables():
    rng = np.random.default_rng(21)
    return [random_joint(rng, m=3).probs, mixed_joint(rng, (2, 3, 1, 2)).probs,
            DiscreteJoint.xor().probs]


class TestSharedMarginals:
    """The marginals and mutual informations cached on a joint."""

    @pytest.mark.parametrize("table", cache_test_tables())
    def test_same_values_in_every_call_order(self, table):
        first = {f: repr(f(DiscreteJoint(table))) for f in MEASURES}
        for order in itertools.permutations(MEASURES):
            joint = DiscreteJoint(table)
            assert [repr(f(joint)) for f in order] == [first[f] for f in order]

    def test_probs_and_cached_arrays_are_read_only(self):
        joint = random_joint(np.random.default_rng(22), m=3)
        for f in MEASURES:
            f(joint)
        for a in (joint.probs, joint._x_marginal, joint._z_marginal, *joint._pair_marginals):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            joint.probs[0, 0, 0, 0] = 1.0

    def test_returned_marginals_do_not_reach_a_cache(self):
        table = random_joint(np.random.default_rng(23), m=3).probs.copy()
        joint = DiscreteJoint(table)
        before = [repr(f(joint)) for f in MEASURES]
        all_axes = ([0, joint.m], [joint.m], list(range(joint.m)), list(range(joint.m + 1)))
        marginal_bytes = [joint.marginal(axes).tobytes() for axes in all_axes]
        for axes in all_axes:
            joint.marginal(axes)[...] = 9.0
        table[...] = 9.0
        assert [repr(f(joint)) for f in MEASURES] == before
        assert [joint.marginal(axes).tobytes() for axes in all_axes] == marginal_bytes

    def test_each_cache_is_built_once_per_joint(self, monkeypatch):
        builds = dict.fromkeys(CACHES, 0)
        for name in CACHES:
            prop = vars(DiscreteJoint)[name]

            def counted(joint, build=prop.func, name=name):
                builds[name] += 1
                return build(joint)

            monkeypatch.setattr(prop, "func", counted)
        joint = random_joint(np.random.default_rng(24), m=4)
        for f in MEASURES:
            f(joint)
        for j in range(joint.m):
            mutual_information(joint, [j])
        ci_decoder_distribution(joint)
        discrete_wms_synergy(joint)
        assert builds == dict.fromkeys(CACHES, 1)


def stacked_path_tables():
    """Binary joints with m = 1..12, mixed arities with zero cells, a latent
    arity and a |X| of at least 9 (lengths numpy sums pairwise), |X| = 1,
    and a table whose zero cells are given as -0.0."""
    rng = np.random.default_rng(31)
    tables = [rng.dirichlet(np.ones(2 ** (m + 1))).reshape((2,) * (m + 1)) for m in range(1, 13)]
    tables += [mixed_joint(rng, arities).probs
               for arities in MIXED_ARITIES + [(9, 2, 3), (2, 3, 11), (10, 2, 2, 9), (3, 12, 1)]]
    signed = mixed_joint(rng, (3, 2, 4)).probs.copy()
    signed[signed == 0.0] = -0.0
    return tables + [signed]


def old_formula_joint(table) -> DiscreteJoint:
    """A joint whose pair tables and single-latent MIs are cached from the
    formulas the stacked paths replace: marginal([j, m]) and _table_mi."""
    joint = DiscreteJoint(table)
    pairs = tuple(joint.marginal([j, joint.m]) for j in range(joint.m))
    vars(joint).update(_pair_marginals=pairs, _single_mis=tuple(map(_table_mi, pairs)))
    return joint


class TestStackedPairPaths:
    """The pair tables by one bincount per latent, and the single-latent
    entropies stacked by table shape, keep the bits of the per-latent sums."""

    def test_tables_cover_signed_zeros(self):
        table = stacked_path_tables()[-1]
        assert np.signbit(table[table == 0.0]).all() and (table == 0.0).any()

    @pytest.mark.parametrize("table", stacked_path_tables(), ids=lambda t: str(t.shape))
    def test_same_bits_as_the_per_latent_formulas(self, table):
        joint, old = DiscreteJoint(table), old_formula_joint(table)
        for new_pair, old_pair in zip(joint._pair_marginals, old._pair_marginals, strict=True):
            assert new_pair.shape == old_pair.shape
            assert new_pair.tobytes() == old_pair.tobytes()
        assert repr(joint._single_mis) == repr(old._single_mis)
        for f in (discrete_ci_synergy, discrete_wms_synergy, _whole_mi):
            assert repr(f(joint)) == repr(f(old))

    @pytest.mark.parametrize("table", stacked_path_tables(), ids=lambda t: str(t.shape))
    def test_total_correlation_within_rounding_of_the_per_axis_formula(self, table):
        # H(Z_j) comes from the (z_j, x) pair tables, whose sums round differently.
        joint = DiscreteJoint(table)
        assert total_correlation(joint) == pytest.approx(
            total_correlation_per_axis(joint.probs), rel=0.0, abs=1e-14)


class TestShortAxisSums:
    """_sum_last adds a short target axis column by column with the bits of
    numpy's reduce, and the measures keep their bits with it."""

    @pytest.mark.parametrize("nx", range(1, 10))
    def test_same_bits_as_numpy_reduce(self, nx):
        rng = np.random.default_rng(nx)
        for shape in [(), (1,), (7,), (3, 4), (2,) * 6]:
            a = rng.standard_normal(shape + (nx,)) * np.exp(rng.uniform(-30, 30, shape + (nx,)))
            a[rng.random(a.shape) < 0.2] = 0.0
            a[rng.random(a.shape) < 0.1] = -0.0
            a[..., :1][rng.random(shape + (1,)) < 0.3] = -0.0
            for table in (a, -np.zeros_like(a), a[..., ::-1]):
                expected = np.add.reduce(table, axis=-1)
                got = _sum_last(table)
                assert np.shape(got) == np.shape(expected)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_rows_of_negative_zero_sum_to_positive_zero(self):
        for nx in range(1, 10):
            assert not np.signbit(_sum_last(-np.zeros((3, nx)))).any()

    def test_leaves_its_input_alone(self):
        a = np.arange(12.0).reshape(4, 3)
        _sum_last(a)
        assert (a == np.arange(12.0).reshape(4, 3)).all()

    @pytest.mark.parametrize("table", stacked_path_tables(), ids=lambda t: str(t.shape))
    def test_measures_keep_the_bits_of_numpy_reduce(self, table, monkeypatch):
        fast = [repr(f(DiscreteJoint(table))) for f in MEASURES]
        fast_marginal = DiscreteJoint(table)._z_marginal.tobytes()
        monkeypatch.setattr(discrete, "_sum_last", lambda a: np.add.reduce(a, axis=-1))
        assert [repr(f(DiscreteJoint(table))) for f in MEASURES] == fast
        assert DiscreteJoint(table)._z_marginal.tobytes() == fast_marginal
