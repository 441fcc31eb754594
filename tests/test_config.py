import dataclasses

import pytest

from mscontrast.config import (
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    save_config,
)


def test_defaults_match_reference_recipe():
    cfg = RunConfig()
    assert cfg.steps == 2000
    assert cfg.batch_size == 8
    assert cfg.loss.tau == 0.1
    assert cfg.loss.scale_weights == {4: 1.0, 8: 0.7, 16: 0.4, 32: 0.1}
    assert cfg.loss.cross_pairs == ((4, 32, 1.0), (4, 16, 1.0))
    assert cfg.loss.lambda_cms == 0.1
    assert cfg.loss.lambda_ccs == 0.1
    assert cfg.loss.a_max == 2048
    assert cfg.model.d == 256
    assert cfg.optimizer.base_lr == 0.05
    assert cfg.optimizer.momentum == 0.9
    assert cfg.dataset.n_classes == 5
    assert cfg.dataset.rare_class == 4


def test_dict_round_trip_is_identity():
    cfg = RunConfig(seed=7, steps=50, batch_size=4)
    cfg2 = config_from_dict(config_to_dict(cfg))
    assert cfg2 == cfg


def test_yaml_round_trip_field_by_field(tmp_path):
    cfg = RunConfig(seed=3, steps=120, batch_size=4, eval_interval=60, out_dir="runs/x")
    cfg.loss.tau = 0.2
    cfg.loss.scale_weights = {4: 1.0, 8: 0.5}
    cfg.loss.cross_pairs = ((4, 8, 1.0),)
    cfg.model.d = 32
    path = tmp_path / "run.yaml"
    save_config(cfg, str(path))
    loaded = load_config(str(path))
    for f in dataclasses.fields(RunConfig):
        assert getattr(loaded, f.name) == getattr(cfg, f.name), f.name


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(str(path)) == RunConfig()


def test_unknown_key_names_section():
    with pytest.raises(ValueError, match="temperture.*'loss'"):
        config_from_dict({"loss": {"temperture": 0.1}})
    with pytest.raises(ValueError, match="'run'"):
        config_from_dict({"stpes": 100})


def test_scale_weight_keys_normalized_to_int():
    cfg = config_from_dict({"loss": {"scale_weights": {"4": 1.0, "8": 0.5},
                                     "cross_pairs": [[4, 8, 1.0]]}})
    assert cfg.loss.scale_weights == {4: 1.0, 8: 0.5}
    assert cfg.loss.cross_pairs == ((4, 8, 1.0),)


def test_loss_position_is_a_loss_setting_only():
    assert config_from_dict({"loss": {"loss_position": "neck"}}).loss.loss_position == "neck"
    with pytest.raises(ValueError, match="loss_position.*'model'"):
        config_from_dict({"model": {"loss_position": "neck"}})


def test_batch_size_floor():
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig(batch_size=1)


def test_hash_stable_and_sensitive():
    a = config_hash(RunConfig())
    b = config_hash(RunConfig())
    assert a == b and len(a) == 64
    assert config_hash(RunConfig(seed=1)) != a
    cfg = RunConfig()
    cfg.loss.tau = 0.2
    assert config_hash(cfg) != a
    # where the files land is not part of the run identity
    assert config_hash(RunConfig(out_dir="elsewhere")) == a


def test_non_mapping_root_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError, match="mapping"):
        load_config(str(path))
