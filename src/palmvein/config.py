"""Pipeline configuration: a flat ``key=value`` text format with section
prefixes (``fe.embedding_dim=128``), parsed into one typed, validated object.

Unknown keys and duplicate keys are errors so typos fail fast.  The resolved
configuration can be re-serialized byte-deterministically, which is how runs
record exactly what they executed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping

from .ced import CEDConfig
from .errors import ConfigError
from .fe import FEConfig, standard_stages
from .optim import TrainHyper
from .triplet import MarginSchedule, TripletHyper

__all__ = ["PipelineConfig", "format_kv", "parse_kv"]


def parse_kv(text: str) -> dict[str, str]:
    """Parse flat ``key=value`` lines; ``#`` comments and blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_kv(mapping: Mapping[str, str]) -> str:
    return "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping))


def _parse_channels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad channel list {text!r}") from exc


def _format_channels(channels: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in channels)


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the ten-stage pipeline, with desk-scale defaults."""

    seed: int = 0
    out: str = "runs/out"
    # dataset
    subjects: int = 20
    samples: int = 10
    size: int = 64
    distribution: str = "A"
    aug_copies: int = 1
    # analytic transform targets
    irt_rays: int = 4000
    irt_n_max: float = 2.0
    # encoder-decoders
    ced_depth: int = 3
    ced_base_channels: int = 8
    ced1_epochs: int = 8
    ced1_batch: int = 10
    ced1_lr: float = 2e-3
    ced2_epochs: int = 8
    ced2_batch: int = 10
    ced2_lr: float = 2e-3
    stack_epochs: int = 4
    stack_batch: int = 10
    stack_lr: float = 5e-4
    # feature extractor
    fe_channels: tuple[int, ...] = (8, 16, 32, 64, 64, 64)
    fe_pool_grid: int = 4
    fe_embedding_dim: int = 128
    # autoencoder pretraining
    ae_epochs: int = 3
    ae_batch: int = 8
    ae_lr: float = 1e-3
    # triplet phase
    triplet_steps: int = 60
    triplet_batch: int = 90
    triplet_lr: float = 1e-3
    triplet_subset: int = 32
    triplet_window: int = 10
    margin_start: float = 0.2
    margin_end: float = 0.5
    # joint end-to-end phase; lr defaults to 0.1x the triplet lr
    e2e_steps: int = 10
    e2e_batch: int = 45
    e2e_lr: float | None = None

    def __post_init__(self):
        if self.subjects < 2:
            raise ConfigError(f"need >= 2 subjects, got {self.subjects}")
        if self.samples < 2 or self.samples % 2:
            raise ConfigError(
                f"samples must be even and >= 2 for the half split, got {self.samples}")
        if self.distribution not in ("A", "B"):
            raise ConfigError(f"distribution must be A or B, got {self.distribution!r}")
        if self.aug_copies < 0:
            raise ConfigError(f"aug_copies must be >= 0, got {self.aug_copies}")
        if self.irt_rays < 1:
            raise ConfigError(f"irt_rays must be >= 1, got {self.irt_rays}")
        if self.e2e_lr is not None and self.e2e_lr <= 0:
            raise ConfigError(f"e2e_lr must be positive, got {self.e2e_lr}")
        # materialize the sub-configs once so inconsistencies surface now;
        # both constructors validate against the shared image size
        self.ced_config()
        self.fe_config()
        self.margin_schedule()

    # -- derived sub-configurations ----------------------------------------

    def ced_config(self) -> CEDConfig:
        return CEDConfig(depth=self.ced_depth, base_channels=self.ced_base_channels,
                         input_size=self.size)

    def fe_config(self) -> FEConfig:
        return FEConfig(input_size=self.size, stages=standard_stages(self.fe_channels),
                        pool_grid=self.fe_pool_grid,
                        embedding_dim=self.fe_embedding_dim)

    def margin_schedule(self) -> MarginSchedule:
        return MarginSchedule(total_steps=self.triplet_steps,
                              m_start=self.margin_start, m_end=self.margin_end)

    def ced1_hyper(self, seed: int) -> TrainHyper:
        return TrainHyper(epochs=self.ced1_epochs, batch_size=self.ced1_batch,
                          lr=self.ced1_lr, seed=seed)

    def ced2_hyper(self, seed: int) -> TrainHyper:
        return TrainHyper(epochs=self.ced2_epochs, batch_size=self.ced2_batch,
                          lr=self.ced2_lr, seed=seed)

    def stack_hyper(self, seed: int) -> TrainHyper:
        return TrainHyper(epochs=self.stack_epochs, batch_size=self.stack_batch,
                          lr=self.stack_lr, seed=seed)

    def ae_hyper(self, seed: int) -> TrainHyper:
        return TrainHyper(epochs=self.ae_epochs, batch_size=self.ae_batch,
                          lr=self.ae_lr, seed=seed)

    def triplet_hyper(self, seed: int) -> TripletHyper:
        return TripletHyper(batch_size=self.triplet_batch, lr=self.triplet_lr,
                            seed=seed, subset_size=self.triplet_subset,
                            stabilize_window=self.triplet_window)

    @property
    def effective_e2e_lr(self) -> float:
        return self.e2e_lr if self.e2e_lr is not None else 0.1 * self.triplet_lr

    @property
    def out_dir(self) -> Path:
        return Path(self.out)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "PipelineConfig":
        remaining = dict(mapping)
        kwargs = {}
        for key, (field_name, caster) in _KEYS.items():
            if key in remaining:
                raw = remaining.pop(key)
                try:
                    kwargs[field_name] = caster(raw)
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        if remaining:
            raise ConfigError(f"unknown config keys: {sorted(remaining)}")
        return cls(**kwargs)

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        return cls.from_mapping(parse_kv(text))

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    def to_mapping(self) -> dict[str, str]:
        out = {}
        for key, (field_name, _) in _KEYS.items():
            value = getattr(self, field_name)
            if field_name == "fe_channels":
                out[key] = _format_channels(value)
            elif value is None:
                continue  # unset optional (e2e.lr) is omitted
            else:
                out[key] = repr(value) if isinstance(value, float) else str(value)
        return out

    def to_text(self) -> str:
        return format_kv(self.to_mapping())

    def override(self, **changes) -> "PipelineConfig":
        return replace(self, **changes)


def _optional_float(raw: str) -> float | None:
    return None if raw == "" else float(raw)


# config-file key -> (dataclass field, caster); one entry per field
_KEYS: dict[str, tuple[str, type | object]] = {
    "seed": ("seed", int),
    "out": ("out", str),
    "data.subjects": ("subjects", int),
    "data.samples": ("samples", int),
    "data.size": ("size", int),
    "data.distribution": ("distribution", str),
    "data.aug_copies": ("aug_copies", int),
    "irt.rays": ("irt_rays", int),
    "irt.n_max": ("irt_n_max", float),
    "ced.depth": ("ced_depth", int),
    "ced.base_channels": ("ced_base_channels", int),
    "ced1.epochs": ("ced1_epochs", int),
    "ced1.batch": ("ced1_batch", int),
    "ced1.lr": ("ced1_lr", float),
    "ced2.epochs": ("ced2_epochs", int),
    "ced2.batch": ("ced2_batch", int),
    "ced2.lr": ("ced2_lr", float),
    "stack.epochs": ("stack_epochs", int),
    "stack.batch": ("stack_batch", int),
    "stack.lr": ("stack_lr", float),
    "fe.channels": ("fe_channels", _parse_channels),
    "fe.pool_grid": ("fe_pool_grid", int),
    "fe.embedding_dim": ("fe_embedding_dim", int),
    "ae.epochs": ("ae_epochs", int),
    "ae.batch": ("ae_batch", int),
    "ae.lr": ("ae_lr", float),
    "triplet.steps": ("triplet_steps", int),
    "triplet.batch": ("triplet_batch", int),
    "triplet.lr": ("triplet_lr", float),
    "triplet.subset": ("triplet_subset", int),
    "triplet.window": ("triplet_window", int),
    "margin.start": ("margin_start", float),
    "margin.end": ("margin_end", float),
    "e2e.steps": ("e2e_steps", int),
    "e2e.batch": ("e2e_batch", int),
    "e2e.lr": ("e2e_lr", _optional_float),
}

# every dataclass field must be reachable from exactly one config key
assert {f.name for f in fields(PipelineConfig)} == {f for f, _ in _KEYS.values()}
