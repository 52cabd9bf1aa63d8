import json

import numpy as np
import numpy.testing as npt
import pytest

from gmlp import cli
from gmlp.analysis import discretize_routing
from gmlp.checkpoint import _LEN, load_checkpoint, save_model
from gmlp.errors import CheckpointError
from gmlp.model import Model, parse_arch
from gmlp.tensor import Tensor

ARCH = "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2"


def _saved(tmp_path):
    model = Model(parse_arch(ARCH, d=6, seed=1))
    path = tmp_path / "model.ckpt"
    save_model(path, model, routing_table=discretize_routing(model.routing))
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


def _with_table(key, value):
    def edit(manifest):
        manifest["routing_table"][key] = value
        return manifest

    return edit


def _with_param(manifest, **fields):
    """The manifest with fields of its first parameter entry replaced."""
    manifest["params"][0].update(fields)
    return manifest


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
    "arch_unparseable": _with("arch", "GSel-4-2, Wiggle, Concat, FC-2"),
    "metadata_not_an_object": _with("metadata", [1, 2]),
    "norm_stats_entry_not_an_object": _with("metadata", {"norm_stats": {"f0": 5}}),
    "routing_table_not_an_object": _with("routing_table", 3),
    "routing_table_missing_k": lambda mf: {
        **mf,
        "routing_table": {k: v for k, v in mf["routing_table"].items() if k != "k"},
    },
    "routing_table_strings": _with_table("slot_to_feature", ["a"] * 8),
    "routing_table_short": _with_table("row_confidence", [1.0]),
    "param_offset_past_blob": lambda mf: _with_param(mf, offset=mf["blob_bytes"]),
    "param_offset_negative": lambda mf: _with_param(mf, offset=-4),
    "param_shape_not_the_archs": lambda mf: _with_param(mf, shape=mf["params"][0]["shape"] + [1]),
}


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
        assert loaded.routing_table.slot_to_feature.tolist() == model.routing.psi.data.argmax(
            axis=1
        ).tolist()


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_checkpoint_error(self, tmp_path, case):
        _, path = _saved(tmp_path)
        _rewrite_manifest(path, MALFORMED[case])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_analyze_exits_with_code_2(self, tmp_path, case, capsys):
        _, path = _saved(tmp_path)
        _rewrite_manifest(path, MALFORMED[case])
        assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

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
