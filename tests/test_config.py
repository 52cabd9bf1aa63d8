import itertools
import math
from dataclasses import fields

import pytest

from gmlp import cli
from gmlp import config as config_module
from gmlp.config import _RUN_KEYS, _TRAIN_KEYS, RunConfig, load_config, parse_config_text
from gmlp.errors import ConfigError
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


class TestOutOfRangeValues:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = -1", "seed must be >= 0, got -1"),
            ("synth_seed = -3", "synth_seed must be >= 0, got -3"),
            ("halfnoise_seed = -1", "halfnoise_seed must be >= 0, got -1"),
            ("synth_n = 0", "synth_n must be >= 1, got 0"),
            ("halfnoise_n = 0", "halfnoise_n must be >= 1, got 0"),
            ("halfnoise_classes = 0", "halfnoise_classes must be >= 1, got 0"),
            ("halfnoise_signal = -1", "halfnoise_signal must be >= 0, got -1"),
            ("halfnoise_noise = -2", "halfnoise_noise must be >= 0, got -2"),
            ("plateau_patience = -4", "plateau_patience must be >= 1, got -4"),
            ("plateau_patience = 0", "plateau_patience must be >= 1, got 0"),
        ],
    )
    def test_rejected_at_parse(self, line, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            _parse(line)

    def test_train_exits_1(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"{ARCH_LINE}\nhalfnoise_noise = -2\n", encoding="utf-8")
        assert cli.main(["train", str(config), "--out-dir", str(tmp_path / "run")]) == 1
        assert "halfnoise_noise must be >= 0" in capsys.readouterr().err


def _docstring_block(marker: str) -> str:
    """The indented lines of the config module's docstring that follow the line ending in ``marker``."""
    lines = config_module.__doc__.splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith(marker)) + 2
    block = itertools.takewhile(lambda line: line.startswith("    "), lines[start:])
    return "\n".join(line.strip() for line in block)


class TestDocstring:
    def test_lists_every_key_once_with_its_default(self):
        listing = _docstring_block("every other key has the default shown::")
        keys = [line.split("=", 1)[0].strip() for line in listing.splitlines()]
        assert sorted(keys) == sorted(_RUN_KEYS.keys() | _TRAIN_KEYS.keys())
        # the listing is itself a config: with an arch, it parses to the defaults
        cfg = parse_config_text(f"{listing}\narch = FC-2")
        assert cfg.to_dict() == RunConfig(arch="FC-2").to_dict()

    def test_example_parses(self):
        cfg = parse_config_text(_docstring_block("Example::"))
        assert cfg.arch.startswith("GSel-4-2") and cfg.out_dir == "runs/synth"
