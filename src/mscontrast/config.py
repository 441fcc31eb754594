"""Run configuration: one YAML file describes a full reproducible run.

Defaults encode the reference recipe (tau 0.1, embedding width 256, scale
weights 1/0.7/0.4/0.1, cross pairs (4,32) and (4,16), both loss weights 0.1,
anchor cap 2048, SGD momentum 0.9 with poly decay at base LR 0.05, 2000
steps, batch 8), so an empty config file trains the intended setup.
A run is reproducible from the config plus the seed alone.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import yaml

from .losses import LossConfig
from .projector import EMBED_DIM_DEFAULT


@dataclass
class DatasetSpec:
    height: int = 64
    width: int = 64
    n_classes: int = 5
    shapes_per_image: tuple = (2, 4)
    shape_size: tuple = (10, 28)
    noise_sigma: float = 0.05
    rare_class: int | None = 4
    rare_freq: float = 0.1
    n_train: int = 200
    n_eval: int = 40

    def scene_spec(self):
        from .scenes import SceneSpec

        return SceneSpec(
            height=self.height, width=self.width, n_classes=self.n_classes,
            shapes_per_image=tuple(self.shapes_per_image), shape_size=tuple(self.shape_size),
            noise_sigma=self.noise_sigma, rare_class=self.rare_class, rare_freq=self.rare_freq)


@dataclass
class ModelSpec:
    d: int = EMBED_DIM_DEFAULT


@dataclass
class OptimizerSpec:
    base_lr: float = 0.05
    momentum: float = 0.9
    poly_power: float = 0.9


@dataclass
class RunConfig:
    seed: int = 0
    steps: int = 2000
    batch_size: int = 8
    eval_interval: int = 500
    out_dir: str = "runs/default"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch statistics)")
        self.dataset.shapes_per_image = tuple(self.dataset.shapes_per_image)
        self.dataset.shape_size = tuple(self.dataset.shape_size)


_SECTIONS = {
    "dataset": DatasetSpec,
    "model": ModelSpec,
    "optimizer": OptimizerSpec,
    "loss": LossConfig,
}


def _build(cls, data: dict, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown config key(s) {sorted(unknown)} in section '{path}'")
    return cls(**data)


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data or {})
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = data.pop(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section '{name}' must be a mapping")
        if name == "loss":
            if "scale_weights" in section:
                section["scale_weights"] = {int(k): float(v) for k, v in section["scale_weights"].items()}
            if "cross_pairs" in section:
                section["cross_pairs"] = tuple(tuple(p) for p in section["cross_pairs"])
        kwargs[name] = _build(cls, section, name)
    return _build(RunConfig, {**data, **kwargs}, "run")


def config_to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["dataset"]["shapes_per_image"] = list(cfg.dataset.shapes_per_image)
    out["dataset"]["shape_size"] = list(cfg.dataset.shape_size)
    out["loss"]["cross_pairs"] = [list(p) for p in cfg.loss.cross_pairs]
    return out


def load_config(path: str) -> RunConfig:
    with open(path) as f:
        data = yaml.safe_load(f)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"config root must be a mapping, got {type(data).__name__}")
    return config_from_dict(data)


def save_config(cfg: RunConfig, path: str):
    with open(path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=True)


def config_hash(cfg: RunConfig) -> str:
    """Hash of every field that affects the training trajectory.

    out_dir only says where files go, so two runs that differ in it alone
    are the same run and may resume each other's checkpoints.
    """
    data = config_to_dict(cfg)
    data.pop("out_dir")
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
