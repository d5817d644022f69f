import numpy as np
import pytest

from minsyn.noise import NOISE_KINDS, apply_noise, corrupt_rows, noise_pattern
from minsyn.words import (
    bundled_common_words,
    bundled_letter_grid,
    build_word_dataset,
    builtin_glyph,
    builtin_glyphs,
    derive_letters_by_position,
    read_word_list,
    synthetic_digits,
)

from _oracles import apply_noise_whole_masks, shift_image, synthetic_digits_per_image


class TestGlyphs:
    def test_shapes_and_range(self):
        g = builtin_glyph("a")
        assert g.shape == (28, 28)
        assert set(np.unique(g)) <= {0.0, 1.0}

    def test_distinct_letters(self):
        a, b = builtin_glyph("a"), builtin_glyph("b")
        assert not np.array_equal(a, b)

    def test_missing_glyph(self):
        with pytest.raises(KeyError):
            builtin_glyph("é")


class TestLetterGrid:
    def test_bundled_grid_letters(self):
        assert bundled_letter_grid() == (tuple("stwamlbh"), tuple("oeaihnul"),
                                         tuple("eotranli"))

    def test_derived_by_count_then_alphabet(self):
        words = [c * 3 for c in "abcdefgh"] + [" HHH", "ggg\n", "xi", "xi"]
        assert derive_letters_by_position(words) == (
            tuple("ghxabcde"), tuple("ghiabcde"), tuple("ghabcdef"))
        with pytest.raises(ValueError, match="position 2"):
            derive_letters_by_position(words[:7] + ["xi"] * 3)

    def test_word_lists_read_one_word_per_line(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("The\n\n  cat \r\nDOG\n   \n")
        assert read_word_list(path) == ["the", "cat", "dog"]
        assert len(bundled_common_words()) == 300


class TestWordDataset:
    def test_split_exhausts_combinations(self, word_dataset):
        ds = word_dataset
        assert len(ds.train_words) + len(ds.test_words) == 512
        assert not set(ds.train_words) & set(ds.test_words)
        assert len(ds.train_words) >= 30  # the bundled dictionary hits the grid

    def test_every_word_in_grid(self, word_dataset):
        ds = word_dataset
        for w in ds.train_words + ds.test_words:
            assert all(w[k] in ds.letters_by_position[k] for k in range(3))

    def test_first_slot_matches_glyph(self, word_dataset):
        ds = word_dataset
        img = ds.train_images[0].reshape(28, 84)
        first = ds.train_words[0][0]
        assert np.array_equal(img[:, :28], builtin_glyph(first))

    def test_char_layout_covers_every_pixel(self, word_dataset):
        layout = word_dataset.char_layout
        assert layout.shape == (28 * 84,)
        assert set(np.unique(layout)) == {0, 1, 2}
        # column blocks of 28 map to consecutive slots
        img_cols = layout.reshape(28, 84)
        assert np.array_equal(np.unique(img_cols[:, :28]), [0])
        assert np.array_equal(np.unique(img_cols[:, 28:56]), [1])
        assert np.array_equal(np.unique(img_cols[:, 56:]), [2])

    def test_missing_glyph_raises(self, word_dataset):
        grid = word_dataset.letters_by_position
        glyphs = builtin_glyphs({c for g in grid for c in g} - {grid[0][0]})
        with pytest.raises(KeyError):
            build_word_dataset(glyphs, ["the"], grid)

    def test_out_of_grid_words_skipped(self, word_dataset):
        grid = word_dataset.letters_by_position
        ds = build_word_dataset(builtin_glyphs({c for g in grid for c in g}), ["zzz", "the"], grid)
        assert "zzz" not in ds.train_words


class TestShiftAndDigits:
    def test_shift_zero_fill(self):
        img = np.ones((4, 4))
        out = shift_image(img, 1, -2)
        assert out[0].sum() == 0.0
        assert out[:, 2:].sum() == 0.0
        assert out[1:, :2].sum() == 6.0

    def test_synthetic_digits_deterministic(self):
        a, la = synthetic_digits(20, seed=5)
        b, lb = synthetic_digits(20, seed=5)
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)
        c, _ = synthetic_digits(20, seed=6)
        assert not np.array_equal(a, c)

    def test_synthetic_digits_equal_the_per_image_loop(self):
        for seed in range(40):
            for count in (0, 1, 2, 3, 17, 120):
                images, labels = synthetic_digits(count, seed=seed)
                want_images, want_labels = synthetic_digits_per_image(count, seed)
                assert images.dtype == want_images.dtype and images.shape == want_images.shape
                assert images.tobytes() == want_images.tobytes()
                assert labels.dtype == want_labels.dtype
                assert labels.tobytes() == want_labels.tobytes()

    def test_synthetic_digits_shapes(self):
        imgs, labels = synthetic_digits(12, seed=0)
        assert imgs.shape == (12, 784)
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0
        assert set(labels) <= set(range(10))


class TestNoise:
    def test_none_is_identity(self):
        imgs = np.random.default_rng(0).random((3, 784))
        out = apply_noise(imgs, "none", seed=3)
        assert np.array_equal(out, imgs)
        assert out is not imgs

    def test_bottom_half(self):
        out = apply_noise(np.ones((2, 784)), "bottom_half").reshape(2, 28, 28)
        assert np.all(out[:, 14:, :] == 0.0)
        assert np.all(out[:, :14, :] == 1.0)

    def test_right_half_wide_raster(self):
        out = apply_noise(np.ones((1, 28 * 84)), "right_half").reshape(1, 28, 84)
        assert np.all(out[:, :, 42:] == 0.0)
        assert np.all(out[:, :, :42] == 1.0)

    def test_erase_chunk_tiling(self):
        out = apply_noise(np.ones((4, 784)), "erase_chunk", seed=9).reshape(4, 28, 28)
        # zeros arrive in aligned 4x4 blocks
        for img in out:
            blocks = img.reshape(7, 4, 7, 4).transpose(0, 2, 1, 3).reshape(49, 16)
            assert set(blocks.sum(axis=1)) <= {0.0, 16.0}
        frac = 1 - out.mean()
        assert 0.3 < frac < 0.7

    def test_v_stripe_columns(self):
        out = apply_noise(np.ones((1, 784)), "v_stripe", seed=1).reshape(28, 28)
        col_vals = {tuple(np.unique(out[:, c])) for c in range(28)}
        assert col_vals <= {(0.5,), (1.0,)}
        frac = sum(np.all(out[:, c] == 0.5) for c in range(28)) / 28
        assert 0.3 <= frac <= 0.7

    def test_h_stripe_rows(self):
        out = apply_noise(np.ones((1, 784)), "h_stripe", seed=1).reshape(28, 28)
        row_vals = {tuple(np.unique(out[r])) for r in range(28)}
        assert row_vals <= {(0.5,), (1.0,)}

    def test_seed_reproducible(self):
        imgs = np.random.default_rng(2).random((5, 784))
        for kind in ("erase_chunk", "v_stripe", "h_stripe"):
            assert np.array_equal(apply_noise(imgs, kind, seed=4),
                                  apply_noise(imgs, kind, seed=4))

    def test_deterministic_kinds_idempotent(self):
        imgs = np.random.default_rng(3).random((2, 784))
        for kind in ("bottom_half", "right_half"):
            once = apply_noise(imgs, kind)
            twice = apply_noise(once, kind)
            assert np.array_equal(once, twice)

    def test_rejects_non_raster(self):
        with pytest.raises(ValueError):
            apply_noise(np.ones((2, 100)), "bottom_half")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_noise(np.ones((2, 784)), "sparkle")

    def test_input_never_mutated(self):
        imgs = np.ones((2, 784))
        for kind in NOISE_KINDS:
            apply_noise(imgs, kind, seed=0)
        assert np.all(imgs == 1.0)

    @pytest.mark.parametrize("width", [28, 30, 84])
    def test_same_bytes_as_whole_batch_masks(self, width):
        imgs = np.random.default_rng(width).random((9, 28 * width))
        for kind in NOISE_KINDS:
            for seed in (0, 5):
                assert apply_noise(imgs, kind, seed).tobytes() == \
                    apply_noise_whole_masks(imgs, kind, seed).tobytes(), (kind, seed)

    @pytest.mark.parametrize("width", [28, 30])
    def test_every_row_slice_corrupted_in_place_equals_apply_noise(self, width):
        imgs = np.random.default_rng(4).random((7, 28 * width))
        for kind in NOISE_KINDS:
            whole = apply_noise(imgs, kind, seed=8)
            pattern = noise_pattern(kind, imgs.shape, seed=8)
            for start in range(7):
                for stop in range(start + 1, 8):
                    block = imgs[start:stop].copy()
                    corrupt_rows(block, kind,
                                 None if pattern is None else pattern[start:stop])
                    assert block.tobytes() == whole[start:stop].tobytes(), (kind, start, stop)

    def test_pattern_checks_kind_then_raster_width(self):
        with pytest.raises(ValueError, match="noise kind"):
            noise_pattern("sparkle", (2, 100))
        with pytest.raises(ValueError, match="rasters"):
            noise_pattern("none", (2, 100))
