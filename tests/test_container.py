import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

    @pytest.mark.parametrize("make", ["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, make):
        path = tmp_path / "model.lam"
        if make == "directory":
            path.mkdir()
        with pytest.raises(ContainerError, match="cannot read container") as err:
            container.load_model(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "header, named",
        [
            ([1], "not a JSON object"),
            ({"format_version": 1}, "malformed array list"),
            ({"format_version": 1, "arrays": [1]}, "malformed array list"),
            ({"format_version": 1, "arrays": [{"name": "a"}]}, "malformed array list"),
            (
                {
                    "format_version": 1,
                    "arrays": [{"name": "a", "dtype": "<f8", "shape": "x", "offset": 0, "nbytes": 8}],
                },
                "malformed array list",
            ),
            ({"format_version": 1, "arrays": [], "meta": []}, "meta is not a JSON object"),
        ],
        ids=["list", "no-arrays", "int-entry", "no-dtype", "string-shape", "list-meta"],
    )
    def test_malformed_header_rejected(self, tmp_path, header, named):
        path = tmp_path / "x.lam"
        raw = json.dumps(header).encode()
        path.write_bytes(container.MAGIC + struct.pack("<Q", len(raw)) + raw + bytes(8))
        with pytest.raises(ContainerError, match=named):
            container.load_arrays(path)

    def test_header_length_past_the_file_rejected(self, tmp_path):
        path = tmp_path / "x.lam"
        path.write_bytes(container.MAGIC + struct.pack("<Q", 2**64 - 1) + b'{"format_version": 1')
        with pytest.raises(ContainerError, match="truncated"):
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

    def test_model_file_keeps_fixed_norm_arrays_and_meta(self, tmp_path):
        # The architecture is fixed, yet model.lam keeps every entry it had.
        model = random_model(np.random.default_rng(4))
        path = tmp_path / "model.lam"
        container.save_model(path, model)
        arrays, meta = container.load_arrays(path)
        assert (meta["activation"], meta["norm"]) == ("relu", "layernorm")
        for l in range(1, model.n_layers + 1):
            assert np.array_equal(arrays[f"norm_scale_{l:02d}"], np.ones(model.d))
            assert np.array_equal(arrays[f"norm_bias_{l:02d}"], np.zeros(model.d))

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



# Every dtype the container accepts: floats are stored as <f8, signed and
# unsigned integers and booleans as <i8, in either byte order.
ACCEPTED_DTYPES = [
    np.dtype(code).newbyteorder(order)
    for code in ("f2", "f4", "f8", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8", "?")
    for order in ("<", ">")
]


@st.composite
def named_arrays(draw):
    names = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    return {
        name: draw(
            hnp.arrays(
                draw(st.sampled_from(ACCEPTED_DTYPES)),
                hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
            )
        )
        for name in names
    }


class TestArrayRoundTrip:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays=named_arrays(), note=st.integers(-(2**53), 2**53))
    def test_random_shapes_and_dtypes_round_trip_byte_for_byte(self, tmp_path, arrays, note):
        path, again = tmp_path / "a.lam", tmp_path / "b.lam"
        if any(a.dtype.kind == "u" and a.size and a.max() > np.iinfo(np.int64).max for a in arrays.values()):
            # Unsigned values past int64 would wrap; the container refuses them.
            with pytest.raises(ShapeError, match="do not fit"):
                container.save_arrays(path, arrays)
            return
        container.save_arrays(path, arrays, meta={"note": note})
        loaded, meta = container.load_arrays(path)
        assert meta == {"note": note}
        assert sorted(loaded) == sorted(arrays)
        for name, arr in arrays.items():
            stored = "<f8" if arr.dtype.kind == "f" else "<i8"
            assert loaded[name].dtype == np.dtype(stored)
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == np.asarray(arr, dtype=stored).tobytes()
        container.save_arrays(again, loaded, meta=meta)
        assert again.read_bytes() == path.read_bytes()
