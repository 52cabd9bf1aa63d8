import math
from dataclasses import fields

import pytest

from gmlp import cli
from gmlp.config import RunConfig, load_config, parse_config_text
from gmlp.errors import ConfigError, DataError
from gmlp.training import TrainConfig

ARCH_LINE = "arch = GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2"


def _parse(second_line: str):
    return parse_config_text(f"{ARCH_LINE}\n{second_line}\n", source="run.cfg")


class TestMalformedLines:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("epochs 3", "run.cfg:2: expected key = value, got 'epochs 3'"),
            ("epoch = 3", "run.cfg:2: unknown key 'epoch'"),
            ("epochs = 3.5", "run.cfg:2: epochs: "),
            ("lr0 = fast", "run.cfg:2: lr0: "),
            ("anneal_entropy = true", "run.cfg:2: unknown key 'anneal_entropy'"),
            ("has_header = maybe", "run.cfg:2: has_header: expected a boolean, got 'maybe'"),
        ],
    )
    def test_names_source_and_line(self, line, message):
        with pytest.raises(ConfigError) as err:
            _parse(line)
        assert str(err.value).startswith(message)

    def test_comment_and_blank_lines_count_toward_line_numbers(self):
        with pytest.raises(ConfigError, match=r"^run\.cfg:4: epochs: "):
            parse_config_text(f"# a run\n\n{ARCH_LINE}\nepochs = x\n", source="run.cfg")

    def test_missing_arch(self):
        with pytest.raises(ConfigError, match="missing required key 'arch'"):
            parse_config_text("epochs = 3\n", source="run.cfg")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.cfg")


class TestRoundTrip:
    def test_to_dict_parses_back_to_itself(self):
        cfg = parse_config_text(
            f"{ARCH_LINE}\n"
            "data = halfnoise\n"
            "has_header = no\n"
            "test_fraction = 0.25\n"
            "epochs = 7\n"
            "lambda = 0.5\n"
            "tau_start = 0.5\n"
            "tau_end = 0.03  # comment\n"
        )
        flat = cfg.to_dict()
        text = "\n".join(f"{key} = {value}" for key, value in flat.items())
        assert parse_config_text(text).to_dict() == flat
        assert flat["lambda"] == 0.5 and flat["has_header"] is False
        assert flat["tau_start"] == 0.5 and flat["tau_end"] == 0.03


class TestTrainKeys:
    @pytest.mark.parametrize("field", fields(TrainConfig), ids=lambda f: f.name)
    def test_every_train_config_field_parses_from_its_key(self, field):
        # a valid value other than the default: one more, or half as much
        value = field.default + 1 if isinstance(field.default, int) else field.default / 2
        key = "lambda" if field.name == "lambda_" else field.name
        train = _parse(f"{key} = {value}").train
        assert getattr(train, field.name) == value
        assert type(getattr(train, field.name)) is type(field.default)
        assert vars(train) == {**vars(TrainConfig()), field.name: value}


# valid values of the text keys that the run checks; any other text key takes any text
RUN_TEXT = {"arch": "FC-3, ReLU, FC-2", "data": "halfnoise"}


class TestRunKeys:
    @pytest.mark.parametrize(
        "field", [f for f in fields(RunConfig) if f.name != "train"], ids=lambda f: f.name
    )
    def test_every_run_config_field_parses_from_its_key(self, field):
        default = getattr(RunConfig(arch=""), field.name)
        if isinstance(default, bool):
            value = not default
        elif isinstance(default, (int, float)):
            # a valid value other than the default: one more, or half as much
            value = default + 1 if isinstance(default, int) else default / 2
        else:
            value = RUN_TEXT.get(field.name, "some text")
        cfg = _parse(f"{field.name} = {value}")
        assert getattr(cfg, field.name) == value
        assert type(getattr(cfg, field.name)) is type(default)
        base = vars(_parse(""))
        assert vars(cfg) == {**base, field.name: value}


class TestNonFiniteTrainValues:
    @pytest.mark.parametrize(
        "key", ["lambda", "alpha", "lr0", "plateau_factor", "tau_start", "tau_end"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejected_at_parse(self, key, value):
        with pytest.raises(ConfigError, match="must be finite"):
            _parse(f"{key} = {value}")

    def test_infinite_temperatures_rejected(self):
        # both at inf pass 0 < tau_end <= tau_start
        with pytest.raises(ConfigError, match="must be finite"):
            TrainConfig(tau_start=math.inf, tau_end=math.inf).validate()

    def test_train_exits_1(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"{ARCH_LINE}\nlambda = nan\n", encoding="utf-8")
        assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
        assert "lambda_ must be finite" in capsys.readouterr().err


class TestSynthNet:
    def test_one_root_probability_is_shared(self):
        assert _parse("synth_root_prob = 0.3").synth_net().root_prob.tolist() == [0.3] * 6

    def test_wrong_count_raises_data_error(self):
        with pytest.raises(DataError):
            _parse("synth_root_prob = 0.3, 0.4").synth_net()
