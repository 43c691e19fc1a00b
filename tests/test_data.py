"""IDX round trips, dataset validation, subsetting and batching."""

import gzip
import struct

import numpy as np
import numpy.testing as npt
import pytest

from morphnn import data as md
from morphnn.autodiff import make_rng


def synth_dataset(rng, n=200, side=8, classes=10):
    images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = (np.arange(n) * 7 + rng.integers(0, classes)) % classes
    return images, labels.astype(np.uint8)


class TestIdxRoundTrip:
    def test_plain_and_gzip(self, tmp_path):
        rng = make_rng(60)
        arr = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        for compress, name in [(False, "a.idx"), (True, "a.idx.gz")]:
            p = tmp_path / name
            md.write_idx(p, arr, compress=compress)
            npt.assert_array_equal(md.load_idx(p), arr)

    def test_labels_rank1(self, tmp_path):
        labels = np.arange(10, dtype=np.uint8)
        p = tmp_path / "labels.idx"
        md.write_idx(p, labels)
        got = md.load_idx(p)
        assert got.shape == (10,)
        npt.assert_array_equal(got, labels)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(b"\x01\x00\x08\x01" + b"\x00" * 8)
        with pytest.raises(md.IdxFormatError, match="magic"):
            md.load_idx(p)

    def test_unknown_type_code(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">BBBB", 0, 0, 0x05, 1))
        with pytest.raises(md.IdxFormatError, match="type code"):
            md.load_idx(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.idx"
        header = struct.pack(">BBBBI", 0, 0, 0x08, 1, 100)
        p.write_bytes(header + b"\x00" * 10)
        with pytest.raises(md.IdxFormatError, match="payload"):
            md.load_idx(p)

    def test_gzip_detected_by_content(self, tmp_path):
        # extension does not matter, the two-byte gzip magic does
        arr = np.arange(6, dtype=np.uint8).reshape(2, 3)
        p = tmp_path / "noext"
        md.write_idx(p, arr, compress=True)
        assert p.read_bytes()[:2] == b"\x1f\x8b"
        npt.assert_array_equal(md.load_idx(p), arr)


class TestDataset:
    def test_load_and_normalize(self, tmp_path):
        rng = make_rng(61)
        images, labels = synth_dataset(rng, n=30)
        md.write_idx(tmp_path / "im.idx", images)
        md.write_idx(tmp_path / "lb.idx", labels)
        ds = md.load_dataset(tmp_path / "im.idx", tmp_path / "lb.idx")
        assert ds.images.dtype == np.float64
        assert ds.images.max() <= 1.0 and ds.images.min() >= 0.0
        npt.assert_allclose(ds.images * 255.0, images)
        assert ds.labels.dtype == np.int64
        assert len(ds) == 30

    def test_count_mismatch(self, tmp_path):
        rng = make_rng(62)
        images, labels = synth_dataset(rng, n=10)
        md.write_idx(tmp_path / "im.idx", images)
        md.write_idx(tmp_path / "lb.idx", labels[:7])
        with pytest.raises(md.IdxFormatError, match="disagree"):
            md.load_dataset(tmp_path / "im.idx", tmp_path / "lb.idx")

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="label"):
            md.Dataset(np.zeros((3, 2, 2)), np.array([0, 1, 10]))


class TestSubset:
    def _ds(self, seed=63, n=400):
        rng = make_rng(seed)
        images = rng.random(size=(n, 4, 4))
        labels = rng.integers(0, 10, size=n)
        return md.Dataset(images, labels.astype(np.int64))

    def test_identity_when_full(self):
        ds = self._ds()
        sub = md.subset(ds, len(ds), make_rng(0))
        assert sub is ds

    def test_stratified_counts(self):
        ds = self._ds()
        sub = md.subset(ds, 100, make_rng(1))
        assert len(sub) == 100
        got = np.bincount(sub.labels, minlength=10)
        exact = 100 * np.bincount(ds.labels, minlength=10) / len(ds)
        assert np.all(np.abs(got - exact) < 1.0)  # largest-remainder bound

    def test_deterministic(self):
        ds = self._ds()
        a = md.subset(ds, 50, make_rng(5))
        b = md.subset(ds, 50, make_rng(5))
        npt.assert_array_equal(a.labels, b.labels)
        npt.assert_array_equal(a.images, b.images)

    def test_oversample_rejected(self):
        ds = self._ds(n=20)
        with pytest.raises(ValueError):
            md.subset(ds, 21, make_rng(0))


class TestBatches:
    def test_covers_everything_once(self):
        ds = TestSubset()._ds(n=105)
        seen = []
        for images, labels in md.batches(ds, 32):
            assert images.shape[0] == labels.shape[0]
            seen.append(images.shape[0])
        assert seen == [32, 32, 32, 9]

    def test_shuffle_draws_from_stream(self):
        ds = TestSubset()._ds(n=64)
        rng = make_rng(9)
        first = [l for _, l in md.batches(ds, 16, rng, shuffle=True)]
        second = [l for _, l in md.batches(ds, 16, rng, shuffle=True)]
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))
        flat = np.sort(np.concatenate(first + second))
        npt.assert_array_equal(flat, np.sort(np.tile(ds.labels, 2)))

    def test_shuffle_needs_rng(self):
        ds = TestSubset()._ds(n=8)
        with pytest.raises(ValueError):
            list(md.batches(ds, 4, shuffle=True))
