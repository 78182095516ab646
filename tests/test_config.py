"""Run-configuration schema: defaults, file parsing, precedence, conversion."""

from dataclasses import fields

import pytest

from mlsa4rec.config import (ConfigError, RunConfig, SCHEMA, build_config,
                             describe_keys, parse_config_file)
from mlsa4rec.model import ModelConfig
from mlsa4rec.train_eval import TrainConfig


class TestDefaults:
    def test_every_key_has_its_default(self):
        cfg = build_config()
        for key, (default, _, _) in SCHEMA.items():
            assert cfg.values[key] == default

    def test_attribute_access(self):
        cfg = build_config()
        assert cfg.d_model == 64
        assert cfg.lr == 0.001
        with pytest.raises(AttributeError):
            cfg.not_a_key

    def test_describe_mentions_every_key(self):
        text = describe_keys()
        for key in SCHEMA:
            assert key in text


class TestConversion:
    def test_int_float_bool(self):
        # the file sets toy on, so reading False shows the override's
        # "off" was parsed, not the default kept
        cfg = build_config(file_values={"toy": "on"},
                           overrides={"d_model": "128", "lr": "0.01",
                                      "toy": "off", "mask_history": "yes"})
        assert cfg.d_model == 128
        assert cfg.lr == pytest.approx(0.01)
        assert cfg.toy is False
        assert cfg.mask_history is True

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError, match="int"):
            build_config(overrides={"d_model": "sixty-four"})
        with pytest.raises(ConfigError, match="boolean"):
            build_config(overrides={"toy": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config(overrides={"d_modle": "64"})

    def test_list_helpers(self):
        cfg = build_config(overrides={"bench_lengths": "8, 16,32",
                                      "grid_dropout": "0.0,0.5",
                                      "grid_n_heads": " 1, 2"})
        assert cfg.int_list("bench_lengths") == [8, 16, 32]
        # each grid list takes the type of the key it searches
        assert cfg.grid() == {"dropout": [0.0, 0.5], "n_heads": [1, 2]}
        assert type(cfg.grid()["dropout"][0]) is float
        assert build_config().grid() == {}

    def test_non_string_override_passes_through(self):
        cfg = build_config(overrides={"epochs": 7})
        assert cfg.epochs == 7


class TestFileParsing:
    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("# training setup\n\nlr = 0.005   # tuned\nepochs=3\n")
        values = parse_config_file(str(p))
        assert values == {"lr": "0.005", "epochs": "3"}

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("lr = 0.005\njust a sentence\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_file(str(p))

    def test_precedence_default_file_override(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("d_model = 32\nn_heads = 4\n")
        cfg = build_config(parse_config_file(str(p)), {"n_heads": "8"})
        assert cfg.d_model == 32      # file beats default
        assert cfg.n_heads == 8       # override beats file
        assert cfg.d_state == 32      # untouched default


class TestTranslation:
    def test_to_model_config(self):
        cfg = build_config(overrides={"d_model": "16", "variant": "v3",
                                      "dropout": "0.2"})
        mc = cfg.to_model_config(vocab_size=99)
        assert mc.vocab_size == 99
        assert mc.d_model == 16
        assert mc.variant == "v3"
        assert mc.dropout == pytest.approx(0.2)
        mc.validate()

    @pytest.mark.parametrize("cls, translate", [
        (ModelConfig, lambda cfg: cfg.to_model_config(vocab_size=7)),
        (TrainConfig, RunConfig.to_train_config)],
        ids=["ModelConfig", "TrainConfig"])
    def test_every_model_field_is_a_key(self, cls, translate):
        key_fields = [f for f in fields(cls) if f.name != "vocab_size"]
        assert key_fields
        for f in key_fields:
            assert f.name in SCHEMA
            assert SCHEMA[f.name][0] == f.default, f.name
            assert isinstance(f.default, SCHEMA[f.name][1]), f.name
        changed = {}
        for f in key_fields:
            default = f.default
            changed[f.name] = (not default if isinstance(default, bool)
                               else default + 1 if isinstance(default, int)
                               else default + 0.25 if isinstance(default, float)
                               else default + "x")
        translated = translate(build_config(overrides=changed))
        assert isinstance(translated, cls)
        assert getattr(translated, "vocab_size", 7) == 7
        for name, value in changed.items():
            assert getattr(translated, name) == value, name

    def test_to_train_config(self):
        cfg = build_config(overrides={"lr": "0.01", "seeds": "3",
                                      "augment": "sliding"})
        tc = cfg.to_train_config()
        assert tc.lr == pytest.approx(0.01)
        assert tc.seeds == 3
        assert tc.augment == "sliding"
        tc.validate()
