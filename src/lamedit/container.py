"""Deterministic single-file container for named float64/int64 arrays.

Layout (little-endian throughout):

    bytes 0..7    magic ``b"LAMCONT1"``
    bytes 8..15   uint64 header length H
    bytes 16..    UTF-8 JSON header (H bytes)
    then          raw C-order array data, in the order listed by the header

The header is ``{"format_version": 1, "meta": {...}, "arrays": [...]}`` where
each array entry records name, dtype, shape and offset (relative to the start
of the data section).  Arrays are stored sorted by name and the header JSON is
emitted with sorted keys and no whitespace, so writing the same arrays twice
produces byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import struct

import numpy as np

from .errors import ContainerError, ShapeError

MAGIC = b"LAMCONT1"
FORMAT_VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_INT64_MAX = np.iinfo(np.int64).max


def _canonical(array: np.ndarray) -> np.ndarray:
    arr = np.asarray(array)
    if arr.dtype.kind == "f":
        arr = np.asarray(arr, dtype="<f8")
    elif arr.dtype.kind in "iub":
        if arr.dtype.kind == "u" and arr.size and arr.max() > _INT64_MAX:
            raise ShapeError(f"unsigned values above {_INT64_MAX} do not fit the container's int64")
        arr = np.asarray(arr, dtype="<i8")
    else:
        raise ShapeError(f"unsupported dtype for container: {arr.dtype}")
    return arr


def save_arrays(path, arrays, meta=None):
    """Write ``arrays`` (mapping name -> ndarray) plus a JSON-able ``meta`` dict."""
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = _canonical(arrays[name])
        raw = arr.tobytes(order="C")
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta or {},
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for raw in blobs:
            fh.write(raw)


def load_arrays(path):
    """Read a container written by :func:`save_arrays`.

    Returns ``(arrays, meta)`` with arrays keyed by name.  A file that is not
    a well-formed container, a truncated one included, raises
    :class:`ContainerError` before any array is read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ContainerError(f"{path}: not a matrix container (bad magic {magic!r})")
        raw_len = fh.read(8)
        header_bytes = fh.read(struct.unpack("<Q", raw_len)[0]) if len(raw_len) == 8 else b""
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerError(f"{path}: truncated or unreadable container header") from exc
        if header.get("format_version") != FORMAT_VERSION:
            raise ContainerError(f"{path}: unsupported container version {header.get('format_version')}")
        data = fh.read()
    arrays = {}
    for entry in header["arrays"]:
        name = entry["name"]
        dtype = _DTYPES.get(entry["dtype"])
        if dtype is None:
            raise ContainerError(f"{path}: unsupported dtype {entry['dtype']}")
        start, nbytes = entry["offset"], entry["nbytes"]
        expected = math.prod(entry["shape"]) * dtype.itemsize
        if nbytes != expected:
            raise ContainerError(
                f"{path}: array {name!r} of shape {entry['shape']} needs {expected} bytes, header says {nbytes}"
            )
        if start < 0 or start + nbytes > len(data):
            raise ContainerError(
                f"{path}: truncated: array {name!r} needs data bytes {start}..{start + nbytes}, "
                f"the file holds {len(data)}"
            )
        arr = np.frombuffer(data[start : start + nbytes], dtype=dtype)
        arrays[name] = arr.reshape(entry["shape"]).copy()
    return arrays, header.get("meta", {})


@contextlib.contextmanager
def _entries(path, kind):
    """Report an array or meta entry a ``kind`` container lacks as ContainerError."""
    try:
        yield
    except KeyError as exc:
        raise ContainerError(f"{path}: {kind} container has no entry {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ContainerError(f"{path}: malformed {kind} container: {exc}") from exc


def save_model(path, toy_model):
    """Serialize a ToyModel: dims, layer matrices, codebook, edit layers."""
    arrays = {"codebook": toy_model.codebook}
    for idx, layer in enumerate(toy_model.layers, start=1):
        arrays[f"w_in_{idx:02d}"] = layer.w_in
        arrays[f"w_out_{idx:02d}"] = layer.w_out
        arrays[f"norm_scale_{idx:02d}"] = layer.norm_scale
        arrays[f"norm_bias_{idx:02d}"] = layer.norm_bias
    meta = {
        "kind": "toy_model",
        "d": toy_model.d,
        "h": toy_model.h,
        "n_layers": toy_model.n_layers,
        "edit_layers": list(toy_model.edit_layers),
        "activation": toy_model.activation,
        "norm": toy_model.norm,
    }
    save_arrays(path, arrays, meta=meta)


def load_model(path):
    from .model import LamLayer, ToyModel

    arrays, meta = load_arrays(path)
    if meta.get("kind") != "toy_model":
        raise ContainerError(f"{path}: container does not hold a model (kind={meta.get('kind')!r})")
    with _entries(path, "model"):
        layers = tuple(
            LamLayer(
                w_in=arrays[f"w_in_{idx:02d}"],
                w_out=arrays[f"w_out_{idx:02d}"],
                norm_scale=arrays[f"norm_scale_{idx:02d}"],
                norm_bias=arrays[f"norm_bias_{idx:02d}"],
            )
            for idx in range(1, meta["n_layers"] + 1)
        )
        return ToyModel(
            layers=layers,
            codebook=arrays["codebook"],
            edit_layers=tuple(meta["edit_layers"]),
            activation=meta["activation"],
            norm=meta["norm"],
        )


def save_dataset(path, dataset):
    """Serialize a MultilingualDataset; the config travels in the meta block."""
    from dataclasses import asdict

    arrays = {
        "fact_vectors": dataset.fact_vectors,
        "preserved_vectors": dataset.preserved_vectors,
        "old_tokens": dataset.old_tokens,
        "new_tokens": dataset.new_tokens,
        "preserved_tokens": dataset.preserved_tokens,
        "transforms": dataset.transforms,
        "hop_transform": dataset.hop_transform,
        "rephrase_offsets": dataset.rephrase_offsets,
        "unrelated_index": dataset.unrelated_index,
    }
    config = asdict(dataset.config)
    config["edit_layers"] = list(config["edit_layers"])
    meta = {"kind": "dataset", "config": config, "languages": list(dataset.languages)}
    save_arrays(path, arrays, meta=meta)


def load_dataset(path):
    from .synthdata import GenConfig, MultilingualDataset

    arrays, meta = load_arrays(path)
    if meta.get("kind") != "dataset":
        raise ContainerError(f"{path}: container does not hold a dataset (kind={meta.get('kind')!r})")
    with _entries(path, "dataset"):
        config = dict(meta["config"])
        config["edit_layers"] = tuple(config["edit_layers"])
        return MultilingualDataset(
            config=GenConfig(**config),
            languages=tuple(meta["languages"]),
            fact_vectors=arrays["fact_vectors"],
            preserved_vectors=arrays["preserved_vectors"],
            old_tokens=arrays["old_tokens"],
            new_tokens=arrays["new_tokens"],
            preserved_tokens=arrays["preserved_tokens"],
            transforms=arrays["transforms"],
            hop_transform=arrays["hop_transform"],
            rephrase_offsets=arrays["rephrase_offsets"],
            unrelated_index=arrays["unrelated_index"],
        )

