import json

import numpy as np
import numpy.testing as npt
import pytest

from gmlp import cli
from gmlp.checkpoint import _LEN, load_checkpoint, save_model
from gmlp.data import Dataset, save_csv
from gmlp.errors import CheckpointError
from gmlp.layers import pin_routing, routing_weights
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
    return _with_entry(manifest, 0, **fields)


def _with_entry(manifest, i, **fields):
    """The manifest with fields of its parameter entry ``i`` replaced."""
    manifest["params"][i].update(fields)
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
    # the routing alone would take 8 * 10**12 float64 values: refused before allocating
    "d_past_the_blob": _with("d", 10**12),
    # an older file's net with a Dropout block in place of the ReLU: the stored
    # names and shapes are the net's, but the grammar has no such block
    "arch_with_dropout": _with("arch", "GSel-4-2, GFC, Dropout-0.5, BNorm, Concat, FC-2"),
    "metadata_not_an_object": _with("metadata", [1, 2]),
    "norm_stats_entry_not_an_object": _with("metadata", {"norm_stats": {"f0": 5}}),
    "class_names_not_a_list": _with("metadata", {"class_names": "no,yes"}),
    "class_names_not_strings": _with("metadata", {"class_names": ["no", 1]}),
    # the net has 2 outputs: a third name maps labels to a class it never predicts
    "class_names_one_per_output": _with("metadata", {"class_names": ["maybe", "no", "yes"]}),
    "class_names_repeated": _with("metadata", {"class_names": ["yes", "yes"]}),
    "feature_names_not_strings": _with("metadata", {"feature_names": [0, 1, 2, 3, 4, 5]}),
    # the net reads 6 columns: 5 names cannot order them
    "feature_names_one_per_input": _with("metadata", {"feature_names": list("ABCDE")}),
    "feature_names_repeated": _with("metadata", {"feature_names": list("ABCDEA")}),
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


def _running_var(value):
    """Blob edit: ``value`` as the first entry of the first batch-norm running variance."""

    def edit(blob, manifest):
        at = next(e["offset"] for e in manifest["params"] if e["name"].endswith(".running_var"))
        return blob[:at] + _f4(value) + blob[at + 4 :]

    return edit


# blob edits, (bytes, manifest) -> bytes
CORRUPT_BLOBS = {
    "blob_first_float_nan": lambda blob, manifest: _f4(np.nan) + blob[4:],
    "blob_last_float_minus_inf": lambda blob, manifest: blob[:-4] + _f4(-np.inf),
    # eval batch-norm takes its square root: every logit would be NaN
    "running_var_negative": _running_var(-0.5),
    "running_var_nan": _running_var(np.nan),
}
# header edits, bytes -> bytes: a manifest length past the file, which a
# read of that length would try to allocate
CORRUPT_HEADERS = {
    "manifest_length_huge": lambda raw: _LEN.pack(2**64 - 1) + raw[_LEN.size :],
    "manifest_length_one_past_the_file": lambda raw: _LEN.pack(len(raw) - _LEN.size + 1) + raw[_LEN.size :],
}
CORRUPT = sorted(MALFORMED) + sorted(CORRUPT_BLOBS) + sorted(CORRUPT_HEADERS)


def _rewrite_blob(path, edit):
    """Replace the blob of a checkpoint file by edit(blob, manifest), keeping its manifest."""
    raw = path.read_bytes()
    (n,) = _LEN.unpack(raw[: _LEN.size])
    head = _LEN.size + n
    path.write_bytes(raw[:head] + edit(raw[head:], json.loads(raw[_LEN.size : head])))


def _corrupt(path, case):
    """Apply the MALFORMED, CORRUPT_BLOBS or CORRUPT_HEADERS edit named ``case``."""
    if case in MALFORMED:
        _rewrite_manifest(path, MALFORMED[case])
    elif case in CORRUPT_HEADERS:
        path.write_bytes(CORRUPT_HEADERS[case](path.read_bytes()))
    else:
        _rewrite_blob(path, CORRUPT_BLOBS[case])


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

    def test_stored_branching_of_older_files_is_ignored(self, tmp_path):
        # the arch's tokens alone give each pool's width: the key is neither written nor read
        _, path = _saved(tmp_path)
        assert "branching" not in load_checkpoint(path).manifest
        _rewrite_manifest(path, _with("branching", "two"))
        assert load_checkpoint(path).model.spec.branching == 2

    def test_older_file_with_another_bare_pool_width_fails(self, tmp_path):
        # earlier versions merged bare GPool tokens at the manifest's branching: this
        # net merged its 8 groups 4-way into 2, so its stored arrays are too few
        # for a pairwise merge, whose 4 groups have more weights
        model = Model(parse_arch("GSel-8-2, GFC, GPool-max-4, GFC, Concat, FC-2", d=6, seed=1))
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        bare = "GSel-8-2, GFC, GPool-max, GFC, Concat, FC-2"
        _rewrite_manifest(path, lambda mf: {**mf, "arch": bare, "branching": 4})
        with pytest.raises(CheckpointError, match=r"arch at d=6 needs 744 blob bytes, not 664"):
            load_checkpoint(path)


class TestCommittedRouting:
    def test_pinned_net_loads_committed_and_gathers_the_one_hot_argmax(self, tmp_path):
        model = Model(parse_arch(ARCH, d=6, seed=1))
        model.set_temperature(0.01)
        pin_routing(model.routing, 0.01)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        loaded = load_checkpoint(path).model
        r = loaded.routing
        s = routing_weights(r.psi.data, r.temperature)
        assert np.count_nonzero(s) == r.k * r.m  # one-hot at the file's final_tau
        # the features whose gather relaxed prediction ran when it tested the softmax at each call
        npt.assert_array_equal(r.idx, s.argmax(axis=1))
        npt.assert_array_equal(r.idx, model.routing.idx)
        x = Tensor(np.random.default_rng(3).normal(size=(50, 6)))
        relaxed, hard = (loaded.forward(x, mode=mode).data for mode in ("relaxed", "hard"))
        assert relaxed.tobytes() == hard.tobytes()
        r.idx = None  # the product with the one-hot softmax: the same values
        npt.assert_array_equal(loaded.forward(x, mode="relaxed").data, relaxed)

    def test_file_from_a_relaxed_epoch_loads_uncommitted_and_mixes(self, tmp_path):
        _, path = _saved(tmp_path)  # an untrained net at temperature 1
        loaded = load_checkpoint(path).model
        assert loaded.routing.idx is None
        x = Tensor(np.random.default_rng(4).normal(size=(50, 6)))
        assert not np.array_equal(loaded.forward(x, mode="relaxed").data, loaded.forward(x, mode="hard").data)


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
            "arch_with_dropout",
            "d_past_the_blob",
            "final_tau_infinite",
            "final_tau_huge_int",
            "norm_stats_sigma_negative",
            *sorted(CORRUPT_BLOBS),
            *sorted(CORRUPT_HEADERS),
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

    def test_zero_running_var_loads(self, tmp_path):
        # a constant unit's population variance: valid, as a sigma of 0 is
        _, path = _saved(tmp_path)
        _rewrite_blob(path, _running_var(0.0))
        running_var = dict(load_checkpoint(path).model.state_arrays())["block2.bn.running_var"]
        assert running_var[0] == 0.0

    @pytest.mark.parametrize("shift", [-4, 4])
    def test_moved_offset_raises_and_eval_exits_2(self, tmp_path, shift, capsys):
        # each entry's offset one float32 off: a shifted or overlapping slice,
        # which a check that the slices lie in range alone lets load
        _, path = _saved(tmp_path)
        raw = path.read_bytes()
        data = tmp_path / "rows.csv"
        save_csv(Dataset(np.zeros((3, 6)), np.array([0, 1, 0]), 2), data)
        entries = load_checkpoint(path).manifest["params"]
        assert len(entries) == 9
        for i in range(len(entries)):
            path.write_bytes(raw)
            _rewrite_manifest(path, lambda mf: _with_entry(mf, i, offset=mf["params"][i]["offset"] + shift))
            with pytest.raises(CheckpointError, match="offset"):
                load_checkpoint(path)
            assert cli.main(["eval", str(path), "--data", str(data)]) == 2
            assert "error:" in capsys.readouterr().err
        # and the last array must end where the blob does
        path.write_bytes(raw)
        _rewrite_blob(path, lambda blob, manifest: blob + _f4(0.0))
        _rewrite_manifest(path, lambda mf: _with("blob_bytes", mf["blob_bytes"] + 4)(mf))
        with pytest.raises(CheckpointError, match="end at byte"):
            load_checkpoint(path)

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
