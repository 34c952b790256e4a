import json
import struct

import numpy as np
import pytest

from lamedit import container
from lamedit.errors import ContainerError, ShapeError
from lamedit.synthdata import generate_dataset

from test_model import random_model
from test_synthdata import tiny_cfg


class TestArrays:
    def test_roundtrip_values_and_meta(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "a": rng.standard_normal((3, 4)),
            "b": np.arange(6, dtype=np.int64).reshape(2, 3),
            "c": rng.standard_normal(5),
        }
        path = tmp_path / "x.lam"
        container.save_arrays(path, arrays, meta={"kind": "test", "note": 7})
        loaded, meta = container.load_arrays(path)
        assert meta == {"kind": "test", "note": 7}
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {"m": rng.standard_normal((4, 4))}
        a, b = tmp_path / "a.lam", tmp_path / "b.lam"
        container.save_arrays(a, arrays)
        container.save_arrays(b, dict(arrays))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.lam"
        path.write_bytes(b"NOTACONTAINER")
        with pytest.raises(ShapeError):
            container.load_arrays(path)

    @pytest.mark.parametrize("keep", [0.5, 0.99])
    def test_truncated_data_rejected(self, tmp_path, keep):
        path = tmp_path / "model.lam"
        container.save_model(path, random_model(np.random.default_rng(3)))
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * keep)])
        with pytest.raises(ContainerError, match="truncated"):
            container.load_arrays(path)

    @pytest.mark.parametrize("length", [4, 12, 40])
    def test_truncated_header_rejected(self, tmp_path, length):
        path = tmp_path / "x.lam"
        container.save_arrays(path, {"a": np.zeros(3)})
        path.write_bytes(path.read_bytes()[:length])
        with pytest.raises(ContainerError):
            container.load_arrays(path)

    def test_nbytes_must_match_shape(self, tmp_path):
        # An entry whose byte count disagrees with its shape is refused even
        # when the bytes are present.
        header = {
            "format_version": 1,
            "meta": {},
            "arrays": [{"name": "a", "dtype": "<f8", "shape": [3], "offset": 0, "nbytes": 16}],
        }
        header_bytes = json.dumps(header).encode("utf-8")
        path = tmp_path / "x.lam"
        path.write_bytes(
            container.MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + bytes(24)
        )
        with pytest.raises(ContainerError, match="needs 24 bytes"):
            container.load_arrays(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            container.save_arrays(tmp_path / "x.lam", {"z": np.array(["a", "b"])})


class TestModelIO:
    def test_model_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        path = tmp_path / "model.lam"
        container.save_model(path, model)
        loaded = container.load_model(path)
        assert loaded.edit_layers == model.edit_layers
        assert loaded.activation == model.activation
        assert np.array_equal(loaded.codebook, model.codebook)
        for l in range(1, model.n_layers + 1):
            assert np.array_equal(loaded.layer(l).w_in, model.layer(l).w_in)
            assert np.array_equal(loaded.layer(l).w_out, model.layer(l).w_out)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "x.lam"
        container.save_arrays(path, {"a": np.zeros(2)}, meta={"kind": "other"})
        with pytest.raises(ShapeError):
            container.load_model(path)


class TestDatasetIO:
    def test_dataset_roundtrip_exact(self, tmp_path):
        ds = generate_dataset(tiny_cfg())
        path = tmp_path / "ds.lam"
        container.save_dataset(path, ds)
        loaded = container.load_dataset(path)
        assert loaded.config == ds.config
        assert loaded.languages == ds.languages
        assert np.array_equal(loaded.fact_vectors, ds.fact_vectors)
        assert np.array_equal(loaded.transforms, ds.transforms)
        assert np.array_equal(loaded.old_tokens, ds.old_tokens)
        assert np.array_equal(loaded.unrelated_index, ds.unrelated_index)

