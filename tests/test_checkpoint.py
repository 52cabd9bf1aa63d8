import json

import numpy as np
import numpy.testing as npt
import pytest

from gmlp import cli
from gmlp.checkpoint import _LEN, load_checkpoint, save_model
from gmlp.data import Dataset, save_csv
from gmlp.errors import CheckpointError
from gmlp.model import Model, parse_arch
from gmlp.tensor import Tensor
from gmlp.training import TrainConfig, fit

ARCH = "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2"


def _saved(tmp_path):
    model = Model(parse_arch(ARCH, d=6, seed=1))
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    return model, path


def _rewrite_manifest(path, edit):
    """Replace the manifest of a checkpoint file by edit(manifest), keeping its blob."""
    raw = path.read_bytes()
    (n,) = _LEN.unpack(raw[: _LEN.size])
    manifest = json.loads(raw[_LEN.size : _LEN.size + n])
    payload = json.dumps(edit(manifest)).encode("utf-8")
    path.write_bytes(_LEN.pack(len(payload)) + payload + raw[_LEN.size + n :])


def _without(key):
    def edit(manifest):
        del manifest[key]
        return manifest

    return edit


def _with(key, value):
    def edit(manifest):
        manifest[key] = value
        return manifest

    return edit


def _with_param(manifest, **fields):
    """The manifest with fields of its first parameter entry replaced."""
    manifest["params"][0].update(fields)
    return manifest


def _norm_stats(**bad):
    """Edit: norm stats for the columns f0..f5 that ``save_csv`` names, with ``bad`` in f0's entry."""
    stats = {f"f{j}": {"mu": 0.5, "sigma": 2.0} for j in range(6)}
    stats["f0"].update(bad)
    return _with("metadata", {"norm_stats": stats})


# written as the tokens NaN and Infinity, or past float64's range
NON_FINITE_NORM_STATS = {
    "norm_stats_mu_nan": _norm_stats(mu=float("nan")),
    "norm_stats_sigma_infinite": _norm_stats(sigma=float("inf")),
    "norm_stats_mu_minus_infinite": _norm_stats(mu=float("-inf")),
    "norm_stats_sigma_huge_int": _norm_stats(sigma=10**400),
}

MALFORMED = {
    "missing_arch": _without("arch"),
    "missing_d": _without("d"),
    "params_not_a_list": _with("params", 5),
    "param_entry_not_an_object": _with("params", [5]),
    "param_shape_not_ints": lambda mf: {
        **mf,
        "params": [{**e, "shape": ["a"]} for e in mf["params"]],
    },
    "top_level_list": lambda mf: [mf],
    "final_tau_string": _with("final_tau", "cold"),
    "final_tau_infinite": _with("final_tau", float("inf")),  # written as the token Infinity
    "final_tau_huge_int": _with("final_tau", 10**400),  # past float64's range
    "arch_unparseable": _with("arch", "GSel-4-2, Wiggle, Concat, FC-2"),
    "metadata_not_an_object": _with("metadata", [1, 2]),
    "norm_stats_entry_not_an_object": _with("metadata", {"norm_stats": {"f0": 5}}),
    "param_offset_past_blob": lambda mf: _with_param(mf, offset=mf["blob_bytes"]),
    "param_offset_negative": lambda mf: _with_param(mf, offset=-4),
    "param_shape_not_the_archs": lambda mf: _with_param(mf, shape=mf["params"][0]["shape"] + [1]),
    **NON_FINITE_NORM_STATS,
    # a population std is never negative; a negative one flips the column's sign
    "norm_stats_sigma_negative": _norm_stats(sigma=-2.0),
}


def _f4(value) -> bytes:
    """One little-endian float32, as the blob stores it."""
    return np.array([value], dtype="<f4").tobytes()


# blob edits, bytes -> bytes
CORRUPT_BLOBS = {
    "blob_first_float_nan": lambda blob: _f4(np.nan) + blob[4:],
    "blob_last_float_minus_inf": lambda blob: blob[:-4] + _f4(-np.inf),
}
CORRUPT = sorted(MALFORMED) + sorted(CORRUPT_BLOBS)


def _corrupt(path, case):
    """Apply the MALFORMED manifest edit or the CORRUPT_BLOBS blob edit named ``case``."""
    if case in MALFORMED:
        _rewrite_manifest(path, MALFORMED[case])
        return
    raw = path.read_bytes()
    (n,) = _LEN.unpack(raw[: _LEN.size])
    head = _LEN.size + n
    path.write_bytes(raw[:head] + CORRUPT_BLOBS[case](raw[head:]))


class TestRoundTrip:
    def test_reload_reproduces_eval_logits(self, tmp_path):
        model, path = _saved(tmp_path)
        loaded = load_checkpoint(path)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 6)))
        for mode in ("hard", "relaxed"):
            npt.assert_allclose(
                loaded.model.forward(x, mode=mode).data,
                model.forward(x, mode=mode).data,
                rtol=1e-5,
                atol=1e-6,
            )

    def test_reload_writes_into_the_flat_vector_and_trains_to_the_same_bits(self, tmp_path):
        model = Model(parse_arch(ARCH, d=6, seed=1))
        rng = np.random.default_rng(2)
        for _, arr in model.state_arrays():
            # float32 values, which the checkpoint stores exactly
            arr[:] = (arr + rng.normal(scale=0.3, size=arr.shape)).astype(np.float32)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        loaded = load_checkpoint(path).model
        for name, p in loaded.parameters():
            assert np.shares_memory(p.data, loaded._flat), name
        npt.assert_array_equal(loaded._flat, model._flat)
        ds = Dataset(rng.normal(size=(48, 6)), rng.integers(0, 2, 48), 2)
        cfg = TrainConfig(epochs=2, batch_size=16, lr0=1e-2)
        fit(model, ds, ds, cfg)
        fit(loaded, ds, ds, cfg)
        for (name, a), (_, b) in zip(model.state_arrays(), loaded.state_arrays()):
            assert a.tobytes() == b.tobytes(), name

    def test_stored_routing_table_of_older_files_is_ignored(self, tmp_path, capsys):
        model, path = _saved(tmp_path)
        # the table earlier versions wrote, here one that disagrees with psi
        slots = (model.routing.psi.data.argmax(axis=1) + 1) % 6
        table = {
            "slot_to_feature": slots.tolist(),
            "row_confidence": [1.0] * 8,
            "k": 4,
            "m": 2,
            "d": 6,
        }
        _rewrite_manifest(path, _with("routing_table", table))
        loaded = load_checkpoint(path)
        assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["slot_to_feature"] == loaded.model.routing.psi.data.argmax(axis=1).tolist()

    def test_unreadable_stored_routing_table_does_not_block_loading(self, tmp_path):
        # nothing reads the key any more, so a value earlier versions rejected loads
        model, path = _saved(tmp_path)
        _rewrite_manifest(path, _with("routing_table", 3))
        loaded = load_checkpoint(path)
        npt.assert_array_equal(
            loaded.model.routing.psi.data, model.routing.psi.data.astype(np.float32)
        )


class TestMalformed:
    @pytest.mark.parametrize("case", CORRUPT)
    def test_raises_checkpoint_error(self, tmp_path, case):
        _, path = _saved(tmp_path)
        _corrupt(path, case)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", CORRUPT)
    def test_analyze_exits_with_code_2(self, tmp_path, case, capsys):
        _, path = _saved(tmp_path)
        _corrupt(path, case)
        assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case",
        [
            "final_tau_infinite",
            "final_tau_huge_int",
            "norm_stats_sigma_negative",
            *sorted(CORRUPT_BLOBS),
            *sorted(NON_FINITE_NORM_STATS),
        ],
    )
    def test_eval_exits_with_code_2(self, tmp_path, case, capsys):
        _, path = _saved(tmp_path)
        _corrupt(path, case)
        data = tmp_path / "rows.csv"
        save_csv(Dataset(np.zeros((3, 6)), np.array([0, 1, 0]), 2), data)
        assert cli.main(["eval", str(path), "--data", str(data)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", [2.0, 0.0])
    def test_finite_norm_stats_load(self, tmp_path, sigma):
        # the same edit with valid values: the eval cases above fail on the bad
        # entry alone; a sigma of 0, a constant column's, is valid
        _, path = _saved(tmp_path)
        _rewrite_manifest(path, _norm_stats(sigma=sigma))
        data = tmp_path / "rows.csv"
        save_csv(Dataset(np.zeros((3, 6)), np.array([0, 1, 0]), 2), data)
        assert cli.main(["eval", str(path), "--data", str(data)]) == 0

    def test_truncated_file(self, tmp_path):
        _, path = _saved(tmp_path)
        path.write_bytes(path.read_bytes()[:5])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_manifest_not_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(_LEN.pack(3) + b"{x}")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_manifest_integer_past_the_digit_limit(self, tmp_path):
        # json refuses to convert an integer literal of more than 4300 digits
        path = tmp_path / "bad.ckpt"
        payload = b'{"d": 1' + b"0" * 5000 + b"}"
        path.write_bytes(_LEN.pack(len(payload)) + payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
