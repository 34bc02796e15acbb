"""PPM parsing, center cropping, dataset assembly, synthetic generator."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscjscc.data import (Dataset, DatasetError, center_crop, load_dataset,
                          synthetic_dataset)


def write_ppm(path, array_hw3, comment=False):
    """array_hw3: (H, W, 3) uint8"""
    h, w, _ = array_hw3.shape
    header = b"P6\n"
    if comment:
        header += b"# a comment line\n"
    header += f"{w} {h}\n255\n".encode()
    path.write_bytes(header + array_hw3.astype(np.uint8).tobytes())


class TestPpmLoading:
    def test_roundtrip(self, tmp_path):
        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        write_ppm(tmp_path / "a.ppm", img)
        ds = load_dataset(tmp_path)
        assert ds.images.shape == (1, 3, 2, 3)
        np.testing.assert_array_equal(ds.images[0], img.transpose(2, 0, 1))

    def test_comment_lines_skipped(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img, comment=True)
        assert load_dataset(tmp_path).images.shape == (1, 3, 4, 4)

    def test_lexicographic_order(self, tmp_path):
        write_ppm(tmp_path / "b.ppm", np.full((2, 2, 3), 20, dtype=np.uint8))
        write_ppm(tmp_path / "a.ppm", np.full((2, 2, 3), 10, dtype=np.uint8))
        ds = load_dataset(tmp_path)
        assert len(ds) == 2
        assert ds.images[0, 0, 0, 0] == 10.0
        assert ds.images[1, 0, 0, 0] == 20.0

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="no .ppm files"):
            load_dataset(tmp_path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="not a directory"):
            load_dataset(tmp_path / "nope")

    def test_wrong_magic_rejected(self, tmp_path):
        (tmp_path / "a.ppm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(DatasetError, match="P6"):
            load_dataset(tmp_path)

    def test_wrong_maxval_rejected(self, tmp_path):
        (tmp_path / "a.ppm").write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(DatasetError, match="maxval"):
            load_dataset(tmp_path)

    def test_truncated_payload_rejected(self, tmp_path):
        (tmp_path / "a.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(DatasetError, match="payload"):
            load_dataset(tmp_path)

    def test_header_without_whitespace_fails_fast(self, tmp_path):
        # a header scan byte by byte took over a second on these 4 MB
        (tmp_path / "a.ppm").write_bytes(b"P" * (4 << 20))
        start = time.perf_counter()
        with pytest.raises(DatasetError, match="truncated PPM header"):
            load_dataset(tmp_path)
        assert time.perf_counter() - start < 0.25

    def test_maxval_running_past_header_window_rejected(self, tmp_path):
        # the 64 KiB header window ends inside "2550": read as 255, it would misplace the pixels
        header = b"P6 1 1 " + b" " * ((1 << 16) - 10) + b"2550\n"
        (tmp_path / "a.ppm").write_bytes(header + bytes(3))
        with pytest.raises(DatasetError, match="truncated PPM header"):
            load_dataset(tmp_path)

    def test_mixed_sizes_rejected_without_crop(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        write_ppm(tmp_path / "b.ppm", np.zeros((3, 3, 3), dtype=np.uint8))
        with pytest.raises(DatasetError, match="disagree"):
            load_dataset(tmp_path)

    def test_mixed_sizes_ok_with_crop(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        write_ppm(tmp_path / "b.ppm", np.zeros((3, 3, 3), dtype=np.uint8))
        ds = load_dataset(tmp_path, crop=2)
        assert ds.images.shape == (2, 3, 2, 2)


class TestCenterCrop:
    def test_offsets_match_floor_arithmetic(self):
        # 300 wide x 280 tall down to 256: offsets (left, top) = (22, 12)
        img = np.zeros((3, 280, 300))
        img[:, 12, 22] = 1.0
        out = center_crop(img, 256)
        assert out.shape == (3, 256, 256)
        assert out[0, 0, 0] == 1.0

    def test_exact_size_is_identity(self):
        img = np.random.default_rng(0).uniform(0, 255, size=(3, 8, 8))
        np.testing.assert_array_equal(center_crop(img, 8), img)

    def test_too_small_rejected(self):
        with pytest.raises(DatasetError, match="smaller"):
            center_crop(np.zeros((3, 4, 4)), 8)


class TestSynthetic:
    def test_shape_and_range(self):
        ds = synthetic_dataset(5, 16, seed=1)
        assert ds.images.shape == (5, 3, 16, 16)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 255.0

    def test_deterministic(self):
        a = synthetic_dataset(3, 8, seed=4).images
        b = synthetic_dataset(3, 8, seed=4).images
        np.testing.assert_array_equal(a, b)

    def test_has_structure(self):
        ds = synthetic_dataset(2, 32, seed=0)
        assert np.std(ds.images) > 10.0  # not a flat field


class TestDatasetType:
    def test_empty_rejected(self):
        with pytest.raises(DatasetError, match="non-empty"):
            Dataset(np.zeros((0, 3, 4, 4)))

    def test_len(self):
        assert len(synthetic_dataset(7, 8)) == 7


@pytest.fixture(scope="module")
def ppm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# a header is four fields and their separators, each of which may be mangled: fields
# from digits (small sizes often, so that the payload can be long enough), signs,
# underscores and arbitrary bytes; separators from whitespace and comments
_NUMBER = st.integers(0, 4).map(lambda v: b"%d" % v) | st.text("0123456789", min_size=1, max_size=24).map(str.encode)
_FIELD = st.lists(_NUMBER | st.sampled_from([b"-", b"+", b"_"]) | st.binary(min_size=1, max_size=3),
                  min_size=1, max_size=2).map(b"".join)
_SEPARATOR = st.lists(st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\x0b"])
                      | st.binary(max_size=6).map(lambda s: b"#" + s + b"\n"), min_size=1, max_size=2).map(b"".join)
_PPM_HEADER = st.tuples(st.just(b"P6") | _FIELD, _SEPARATOR, _NUMBER | _FIELD, _SEPARATOR,
                        _NUMBER | _FIELD, _SEPARATOR, st.just(b"255") | _FIELD, _SEPARATOR).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(header=_PPM_HEADER, payload=st.binary(max_size=80))
@example(header=b"P6\n2 1\n255\n", payload=bytes(6))
@example(header=b"P6 -1 -1 255\n", payload=bytes(6))
@example(header=b"P6 abc 4 255\n", payload=bytes(48))
@example(header=b"P6 0 4 255\n", payload=b"")
@example(header=b"P6 " + b"9" * 5000 + b" 1 255\n", payload=bytes(6))
def test_fuzzed_ppm_loads_or_raises_dataset_error(ppm_dir, header, payload):
    path = ppm_dir / "a.ppm"
    path.write_bytes(header + payload)
    try:
        ds = load_dataset(ppm_dir)
    except DatasetError as e:
        assert str(path) in str(e)
    else:
        assert ds.images.shape[:2] == (1, 3) and min(ds.images.shape) >= 1
