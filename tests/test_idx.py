import gzip
import struct

import numpy as np
import pytest

from minsyn.idx import (
    IdxParseError,
    IdxTensor,
    images_tensor,
    labels_tensor,
    parse_idx,
    read_idx_file,
    write_idx,
    write_idx_file,
)


def u8_tensor(rng, dims):
    raw = rng.integers(0, 256, size=int(np.prod(dims)))
    return IdxTensor(dims=dims, data=raw / 255.0)


class TestParse:
    def test_image_header(self):
        payload = struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(2 * 28 * 28)
        t = parse_idx(payload)
        assert t.dims == (2, 28, 28)
        assert t.data.size == 1568
        assert t.data.max() == 0.0

    def test_label_header(self):
        payload = struct.pack(">II", 0x00000801, 3) + bytes([0, 7, 255])
        t = parse_idx(payload)
        assert t.dims == (3,)
        assert t.data[2] == 1.0

    def test_values_rescaled(self):
        payload = struct.pack(">II", 0x00000801, 2) + bytes([51, 255])
        t = parse_idx(payload)
        assert t.data[0] == pytest.approx(51 / 255)

    def test_every_byte_value_scales_as_a_float_division(self):
        payload = struct.pack(">II", 0x00000801, 256) + bytes(range(256))
        t = parse_idx(payload)
        assert t.data.dtype == np.float64
        assert t.data.tobytes() == (np.arange(256).astype(float) / 255.0).tobytes()

    def test_bad_magic(self):
        with pytest.raises(IdxParseError, match="magic"):
            parse_idx(struct.pack(">I", 0xDEADBEEF))

    def test_truncated_payload_reports_offset(self):
        payload = struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(100)
        with pytest.raises(IdxParseError) as err:
            parse_idx(payload)
        assert err.value.offset == len(payload)
        assert "truncated" in str(err.value)

    def test_truncated_header_reports_offset(self):
        payload = struct.pack(">I", 0x00000803) + struct.pack(">I", 2)
        with pytest.raises(IdxParseError) as err:
            parse_idx(payload)
        assert err.value.offset == len(payload)

    @pytest.mark.parametrize("magic,dims", [(0x0804, (65536,) * 4),
                                            (0x0803, (2 ** 31, 2 ** 31, 4))])
    def test_element_count_past_int64_is_truncated(self, magic, dims):
        payload = struct.pack(f">I{len(dims)}I", magic, *dims)
        with pytest.raises(IdxParseError, match="truncated payload"):
            parse_idx(payload)

    def test_trailing_bytes_rejected(self):
        payload = struct.pack(">II", 0x00000801, 1) + bytes([1, 2])
        with pytest.raises(IdxParseError, match="trailing"):
            parse_idx(payload)


class TestRoundTrip:
    def test_random_u8_tensors(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ndim = int(rng.integers(1, 4))
            dims = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
            t = u8_tensor(rng, dims)
            back = parse_idx(write_idx(t))
            assert back.dims == t.dims
            assert np.array_equal(back.data, t.data)
            assert back.dtype_code == t.dtype_code

    def test_int32_labels(self):
        labels = np.array([0, 7, 511, 100000])
        t = labels_tensor(labels)
        back = parse_idx(write_idx(t))
        assert np.array_equal(back.data, labels.astype(float))

    def test_file_round_trip_raw_and_gzip(self, tmp_path):
        rng = np.random.default_rng(1)
        t = u8_tensor(rng, (3, 7))
        raw = tmp_path / "t.idx"
        write_idx_file(raw, t)
        assert np.array_equal(read_idx_file(raw).data, t.data)
        gz = tmp_path / "t.idx.gz"
        gz.write_bytes(gzip.compress(write_idx(t)))
        assert np.array_equal(read_idx_file(gz).data, t.data)


class TestHelpers:
    def test_images_tensor_shape(self):
        imgs = np.zeros((4, 28 * 84))
        t = images_tensor(imgs)
        assert t.dims == (4, 28, 84)

    def test_images_tensor_rejects_non_raster(self):
        with pytest.raises(ValueError):
            images_tensor(np.zeros((4, 27)))

    def test_tensor_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            IdxTensor(dims=(2,), data=np.array([0.5, 1.5]))
