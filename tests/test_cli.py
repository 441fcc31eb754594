import json
import logging
import os

import numpy as np
import pytest
import yaml

from mscontrast.cli import _parse_shapes, main
from mscontrast.config import load_config
from mscontrast.training import build_model, save_checkpoint

@pytest.fixture(autouse=True)
def _quiet_loss_warnings():
    log = logging.getLogger("mscontrast.losses")
    old = log.level
    log.setLevel(logging.ERROR)
    yield
    log.setLevel(old)


@pytest.fixture
def tiny_yaml(tmp_path):
    cfg = {
        "seed": 0, "steps": 2, "batch_size": 2, "eval_interval": 2,
        "out_dir": str(tmp_path / "run"),
        "dataset": {"n_train": 4, "n_eval": 2},
        "model": {"d": 8},
        "loss": {"a_max": 64},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path), cfg


def test_parse_shapes():
    assert _parse_shapes("2x16x16,1x4x8") == [(2, 16, 16), (1, 4, 8)]
    with pytest.raises(ValueError, match="BxHxW"):
        _parse_shapes("2x16")


def test_train_then_eval_then_export(tiny_yaml, tmp_path, capsys):
    path, cfg = tiny_yaml
    assert main(["train", path]) == 0
    out = json.loads(capsys.readouterr().out)
    ckpt = out["checkpoint"]
    assert os.path.exists(ckpt)
    assert out["final_eval"] is not None

    assert main(["eval", ckpt, path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "miou" in report

    csv_path = str(tmp_path / "emb.csv")
    assert main(["export-embeddings", ckpt, path, "--scale", "4",
                 "--per-class", "3", "--out", csv_path]) == 0
    assert open(csv_path).readline().startswith("class_id,scale,e0")


def test_missing_checkpoint_is_structured_error(tiny_yaml, capsys):
    path, _ = tiny_yaml
    assert main(["eval", "/does/not/exist.npz", path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


@pytest.mark.parametrize("command", ["eval", "export-embeddings", "train"])
@pytest.mark.parametrize("damage", ["no_checkpoint_keys", "cut_to_50_bytes"])
def test_unreadable_checkpoint_is_structured_error(tiny_yaml, tmp_path, capsys, damage, command):
    path, _ = tiny_yaml
    bad = tmp_path / "bad.npz"
    if damage == "no_checkpoint_keys":
        np.savez(bad, weights=np.zeros(3))
    else:
        # what a crash while writing a checkpoint leaves behind
        cfg = load_config(path)
        model = build_model(cfg)
        save_checkpoint(str(bad), model, {n: np.zeros_like(p.data) for n, p in model.named_parameters()},
                        0, cfg)
        bad.write_bytes(bad.read_bytes()[:50])
    argv = {"eval": ["eval", str(bad), path],
            "export-embeddings": ["export-embeddings", str(bad), path, "--scale", "4",
                                  "--per-class", "1", "--out", str(tmp_path / "x.csv")],
            "train": ["train", path, "--resume", str(bad)]}[command]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert str(bad) in err["message"]


def test_bad_config_is_structured_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("loss:\n  temperture: 0.5\n")
    assert main(["train", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "temperture" in err["message"]


def test_benchmark_emits_one_json_row_per_shape(capsys):
    assert main(["benchmark", "--shapes", "1x4x4,1x8x8", "--a-max", "16"]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert len(rows) == 2
    assert rows[0]["dense_pairs"] == 256
    assert rows[1]["dense_pairs"] == (1 * 8 * 8) ** 2


def test_gradcheck_single_instance(capsys):
    assert main(["gradcheck", "--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "4/4 checks passed" in out
