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
import itertools
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


def _well_formed(entry):
    """Whether a header's array entry has every field, of the right type."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("dtype"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(n) is int and n >= 0 for n in entry["shape"])
        and all(type(entry.get(k)) is int for k in ("offset", "nbytes"))
    )


def load_arrays(path):
    """Read a container written by :func:`save_arrays`.

    Returns ``(arrays, meta)`` with arrays keyed by name.  A file that is not
    a well-formed container, a truncated one included, raises
    :class:`ContainerError` before any array is read, and so does a path that
    cannot be read (missing, a directory, no permission).
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ContainerError(f"{path}: cannot read container: {exc.strerror or exc}") from exc
    if raw[:8] != MAGIC:
        raise ContainerError(f"{path}: not a matrix container (bad magic {raw[:8]!r})")
    header_len = struct.unpack("<Q", raw[8:16])[0] if len(raw) >= 16 else 0
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: truncated or unreadable container header") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: container header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ContainerError(f"{path}: unsupported container version {header.get('format_version')}")
    entries = header.get("arrays")
    if not isinstance(entries, list) or not all(_well_formed(entry) for entry in entries):
        raise ContainerError(f"{path}: malformed array list in container header")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}: container meta is not a JSON object")
    data = memoryview(raw)[16 + header_len :]
    arrays = {}
    for entry in entries:
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
    return arrays, meta


@contextlib.contextmanager
def _entries(path, kind):
    """Report an entry a ``kind`` container lacks, or one its type refuses, as ContainerError."""
    try:
        yield
    except ContainerError:
        raise
    except KeyError as exc:
        raise ContainerError(f"{path}: {kind} container has no entry {exc.args[0]!r}") from exc
    except (TypeError, ShapeError) as exc:
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
    """Read a ToyModel; one that is not lamedit's architecture raises ContainerError.

    The meta must name relu and layernorm, and every layer's stored
    ``norm_scale``/``norm_bias`` must be the fixed ones and zeros: the model
    has no place for other values, so it would score a different model.
    Whatever the layer and model constructors refuse (non-finite weights, a
    codebook column off unit norm, unordered edit layers, no layers) raises
    ContainerError too.
    """
    from .model import LamLayer, ToyModel

    arrays, meta = load_arrays(path)
    if meta.get("kind") != "toy_model":
        raise ContainerError(f"{path}: container does not hold a model (kind={meta.get('kind')!r})")
    with _entries(path, "model"):
        architecture = (meta["activation"], meta["norm"])
        if architecture != (ToyModel.activation, ToyModel.norm):
            raise ContainerError(
                f"{path}: model has activation {architecture[0]!r} and norm {architecture[1]!r}; "
                f"lamedit models are {ToyModel.activation!r} and {ToyModel.norm!r}"
            )
        layers = tuple(
            LamLayer(w_in=arrays[f"w_in_{idx:02d}"], w_out=arrays[f"w_out_{idx:02d}"])
            for idx in range(1, meta["n_layers"] + 1)
        )
        for idx, layer in enumerate(layers, start=1):
            for name, fixed in (("norm_scale", "ones"), ("norm_bias", "zeros")):
                if not np.array_equal(arrays[f"{name}_{idx:02d}"], getattr(layer, name)):
                    raise ContainerError(
                        f"{path}: model array '{name}_{idx:02d}' must be all {fixed}: "
                        "lamedit's layer norm has no affine"
                    )
        return ToyModel(layers=layers, codebook=arrays["codebook"], edit_layers=tuple(meta["edit_layers"]))


def _dataset_shapes(cfg):
    """Each dataset array's shape under its config ``cfg``, by name."""
    d, n, p, m = cfg.d, cfg.n_facts, cfg.n_preserved, cfg.m_languages
    return {
        "fact_vectors": (d, n),
        "preserved_vectors": (d, p),
        "old_tokens": (n,),
        "new_tokens": (n,),
        "preserved_tokens": (p,),
        "transforms": (m, d, d),
        "hop_transform": (d, d),
        "rephrase_offsets": (m, d, n),
        "unrelated_index": (m, n),
    }


def _check_dataset(path, cfg, languages, arrays):
    """Raise ContainerError unless the dataset's languages and arrays fit its config ``cfg``.

    Tokens must be integers in ``[0, vocab_size)``, ``unrelated_index`` in
    ``[0, n_preserved)``, and every other array finite floats.  The old, new
    and preserved tokens must be disjoint sets, as ``generate_dataset`` draws
    them, so that a hit names one fact.
    """
    if len(languages) != cfg.m_languages:
        raise ContainerError(f"{path}: dataset names {len(languages)} languages, its config {cfg.m_languages}")
    bounds = {"unrelated_index": cfg.n_preserved}
    tokens = ("old_tokens", "new_tokens", "preserved_tokens")
    bounds.update(dict.fromkeys(tokens, cfg.vocab_size))
    for name, shape in _dataset_shapes(cfg).items():
        arr, bound = arrays[name], bounds.get(name)
        if arr.shape != shape:
            raise ContainerError(f"{path}: dataset array {name!r} has shape {arr.shape}, its config needs {shape}")
        if bound is None and not (arr.dtype.kind == "f" and np.all(np.isfinite(arr))):
            raise ContainerError(f"{path}: dataset array {name!r} must hold finite floats")
        if bound is not None and not (arr.dtype.kind == "i" and np.all((arr >= 0) & (arr < bound))):
            raise ContainerError(f"{path}: dataset array {name!r} must hold integers in [0, {bound})")
    for first, second in itertools.combinations(tokens, 2):
        shared = set(arrays[first].tolist()) & set(arrays[second].tolist())
        if shared:
            raise ContainerError(f"{path}: dataset arrays {first!r} and {second!r} share token {min(shared)}")


def save_dataset(path, dataset):
    """Serialize a MultilingualDataset; the config travels in the meta block."""
    from dataclasses import asdict

    arrays = {name: getattr(dataset, name) for name in _dataset_shapes(dataset.config)}
    config = asdict(dataset.config)
    config["edit_layers"] = list(config["edit_layers"])
    meta = {"kind": "dataset", "config": config, "languages": list(dataset.languages)}
    save_arrays(path, arrays, meta=meta)


def load_dataset(path):
    """Read a dataset; one that does not fit its own config raises ContainerError."""
    from .synthdata import GenConfig, MultilingualDataset

    arrays, meta = load_arrays(path)
    if meta.get("kind") != "dataset":
        raise ContainerError(f"{path}: container does not hold a dataset (kind={meta.get('kind')!r})")
    with _entries(path, "dataset"):
        config = dict(meta["config"])
        config["edit_layers"] = tuple(config["edit_layers"])
        cfg = GenConfig(**config)
        languages = tuple(meta["languages"])
        _check_dataset(path, cfg, languages, arrays)
    return MultilingualDataset(
        config=cfg, languages=languages, **{name: arrays[name] for name in _dataset_shapes(cfg)}
    )
