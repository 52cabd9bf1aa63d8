"""Portable model checkpoints: a length-prefixed JSON manifest followed by a
raw little-endian float32 parameter blob in one container file.

The manifest indexes every array a reload needs (parameters plus batch-norm
running moments) by name, shape, and byte offset, and carries the
architecture string, input width, final softmax temperature and training
metadata (seed, config echo, normalization statistics, the feature names
in input order, and the label of each class index when the training CSV's
labels were not integers). It stores nothing that the rest of the file
determines: the routing is the per-row argmax of the stored ``gsel.psi``,
and loads committed (``RoutingParams.idx``) if its softmax at the final
temperature is one-hot, as ``pin_routing`` leaves it. The ``routing_table``
key of older files is ignored, as is their ``branching`` key: a bare
``GPool-kind`` token merges 2 groups, so an older file that set another
width for bare tokens no longer matches its stored shapes and fails to
load. An older file whose architecture holds a block the grammar no longer
has, such as the random masking block of earlier versions, fails to load too.
Weights are down-converted to float32 on save and promoted back to float64
on load, the dtype the model keeps its parameters in; prediction computes
in float32 from casts of the float64 weights and folds (``model.EVAL_DTYPE``), so a
reloaded model reproduces eval-mode outputs to float32 rounding (about 1e-7
relative per operation) rather than bit-exactly.
A file whose arrays hold a NaN or an infinity, whose batch-norm running
variance or normalization sigma is negative, whose final temperature or
normalization statistics are not finite, or whose class or feature names
repeat a name or do not number the net's outputs or inputs, is rejected on
load like any other corrupt file.
So is a blob of fewer float32 values than the manifest's architecture has
parameters (``count_complexity``), checked before the model allocates any,
and a manifest whose arrays do not tile the blob back to back, in order, as
the writer lays them out.

Nothing non-deterministic (timestamps, hostnames) is written: identical
models under identical metadata serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError
from .layers import routing_weights
from .model import ArchSpec, Model, count_complexity, parse_arch

FORMAT_VERSION = 1
_LEN = struct.Struct("<Q")


def save_checkpoint(
    path,
    spec: ArchSpec,
    arrays: list[tuple[str, np.ndarray]],
    final_tau: float,
    metadata: dict | None = None,
) -> None:
    entries = []
    blob = bytearray()
    for name, arr in arrays:
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": len(blob)})
        blob.extend(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "arch": spec.text,
        "d": spec.d,
        "seed": spec.seed,
        "final_tau": final_tau,
        "metadata": metadata or {},
        "params": entries,
        "blob_bytes": len(blob),
    }
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_LEN.pack(len(payload)))
        fh.write(payload)
        fh.write(bytes(blob))


def save_model(path, model: Model, metadata=None):
    save_checkpoint(path, model.spec, model.state_arrays(), model.temperature, metadata=metadata)


@dataclass
class LoadedCheckpoint:
    model: Model
    manifest: dict


def _field(obj: dict, key: str, kind, where: str):
    """obj[key], which must be present and of type ``kind`` (a bool never counts as a number)."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise CheckpointError(f"{where}: {key!r} is missing or mistyped ({value!r})")
    return value


def _list_of(obj: dict, key: str, kind, where: str) -> list:
    """_field for a list whose every item has type ``kind``."""
    values = _field(obj, key, list, where)
    if any(isinstance(v, bool) or not isinstance(v, kind) for v in values):
        raise CheckpointError(f"{where}: {key!r} holds mistyped items")
    return values


def _finite(obj: dict, key: str, where: str) -> float:
    """_field for a number that must also be finite, returned as a float; an int past float64's range is not finite."""
    try:
        value = float(_field(obj, key, (int, float), where))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise CheckpointError(f"{where}: {key!r} is {value}, not finite")
    return value


def _read_container(path) -> tuple[dict, memoryview]:
    """Parse a checkpoint file into its manifest and blob, checking the manifest's structure.

    Every way a file can be malformed (truncation, a manifest length past the
    file, bad JSON, a manifest that is not an object, a missing or mistyped
    field, a final temperature or normalization statistic that is not
    finite, a negative normalization sigma) raises CheckpointError.
    """
    with open(path, "rb") as fh:
        head = fh.read(_LEN.size)
        if len(head) != _LEN.size:
            raise CheckpointError(f"{path}: truncated header")
        (n,) = _LEN.unpack(head)
        rest = fh.read()  # not fh.read(n), which would allocate a length past the file
    if len(rest) < n:
        raise CheckpointError(f"{path}: truncated manifest (length {n})")
    payload, blob = rest[:n], memoryview(rest)[n:]
    try:
        manifest = json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past the digit limit
        raise CheckpointError(f"{path}: bad manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {manifest.get('format_version')}")
    if manifest.get("blob_bytes") != len(blob):
        raise CheckpointError(
            f"blob length {len(blob)} does not match manifest ({manifest.get('blob_bytes')})"
        )
    where = f"{path}: manifest"
    _field(manifest, "arch", str, where)
    _field(manifest, "d", int, where)
    _finite(manifest, "final_tau", where)
    if "seed" in manifest:
        _field(manifest, "seed", int, where)
    if "metadata" in manifest:
        metadata = _field(manifest, "metadata", dict, where)
        if metadata.get("norm_stats"):
            stats = _field(metadata, "norm_stats", dict, f"{where} metadata")
            for name in stats:
                at = f"{where} norm_stats[{name!r}]"
                entry = _field(stats, name, dict, at)
                _finite(entry, "mu", at)
                # a population std: 0 for a constant column, never negative
                if _finite(entry, "sigma", at) < 0.0:
                    raise CheckpointError(f"{at}: 'sigma' is negative")
        for key in ("class_names", "feature_names"):
            if metadata.get(key) is not None:
                names = _list_of(metadata, key, str, f"{where} metadata")
                if len(set(names)) != len(names):
                    raise CheckpointError(f"{where} metadata: {key!r} {names} repeats a name")
    for i, entry in enumerate(_field(manifest, "params", list, where)):
        at = f"{where} params[{i}]"
        if not isinstance(entry, dict):
            raise CheckpointError(f"{at}: {entry!r} is not an object")
        _field(entry, "name", str, at)
        _list_of(entry, "shape", int, at)
        _field(entry, "offset", int, at)
    return manifest, blob


def load_checkpoint(path) -> LoadedCheckpoint:
    manifest, blob = _read_container(path)
    try:
        spec = parse_arch(manifest["arch"], d=manifest["d"], seed=manifest.get("seed", 0))
        needed = 4 * count_complexity(spec).param_count_actual  # checked before Model allocates
        if needed > len(blob):
            raise CheckpointError(f"{path}: arch at d={spec.d} needs {needed} blob bytes, not {len(blob)}")
        model = Model(spec)
        model.set_temperature(float(manifest["final_tau"]))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: manifest describes no valid model: {exc}") from exc
    metadata = manifest.get("metadata", {})
    for key, width in (("class_names", spec.n_classes), ("feature_names", spec.d)):
        if metadata.get(key) is not None and len(metadata[key]) != width:
            raise CheckpointError(f"{path}: {len(metadata[key])} {key} for a net of width {width}")
    available = dict(model.state_arrays())
    end = 0  # the arrays tile the blob back to back, in manifest order, as the writer lays them out
    for entry in manifest["params"]:
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        count = int(np.prod(shape)) if shape else 1
        if offset != end:
            raise CheckpointError(f"{name}: offset {offset}, where the previous array ends at {end}")
        end = offset + 4 * count
        if end > len(blob):
            raise CheckpointError(f"{name}: blob slice [{offset}, {end}) out of range")
        if name not in available:
            raise CheckpointError(f"{name}: not a parameter of arch {manifest['arch']!r}")
        dst = available.pop(name)
        if dst.shape != shape:
            raise CheckpointError(f"{name}: shape {shape} != expected {dst.shape}")
        values = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{name}: holds non-finite values")
        if name.endswith(".running_var") and (values < 0.0).any():  # eval batch-norm takes its square root
            raise CheckpointError(f"{name}: holds a negative variance")
        dst[:] = values.reshape(shape).astype(np.float64)
    if available:
        raise CheckpointError(f"checkpoint is missing arrays: {sorted(available)}")
    if end != len(blob):
        raise CheckpointError(f"the arrays end at byte {end} of a {len(blob)}-byte blob")
    r = model.routing
    if r is not None and np.count_nonzero(routing_weights(r.psi.data, r.temperature)) == r.psi.shape[0]:
        r.idx = r.psi.data.argmax(axis=1)  # one nonzero weight per row: a committed routing
    return LoadedCheckpoint(model=model, manifest=manifest)
