"""Declarative model configuration: stage/variant settings and presets.

Configs serialize to a flat JSON document (see `to_dict`).  Presets are
addressable by name ("ipt-t", "ipt-s", "ipt-b", plus "micro" for tests and
gradient checking).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Sequence, get_origin, get_type_hints

from .errors import ConfigError

# The strides of IncepFormer's four patch embeddings.  Every input side must
# be a positive multiple of their product, so stage i's map sides are
# multiples of INPUT_MULTIPLE over the product of the first i strides.
PATCH_STRIDES = (4, 2, 2, 2)
INPUT_MULTIPLE = math.prod(PATCH_STRIDES)
# The most classes a config may declare: far above ADE20K's 150, and small
# enough that the per-class palette and score planes stay cheap.
MAX_NUM_CLASSES = 1 << 16
# The most blocks one stage may have: far above the paper's deepest stage
# (24, ipt-b stage 3), and checked before any block is built or counted.
MAX_DEPTH = 1 << 10
# The longest input side: 4x the 2048 width of the widest documented input,
# checked before any image, label or activation of that size is allocated.
MAX_INPUT_SIDE = 1 << 13
# The longest model config file, in characters: far above any real config
# (a preset dumps to under 1 KB), and read no further, so a device or a
# huge file is rejected without being read whole.
MAX_CONFIG_CHARS = 1 << 20


@dataclass(frozen=True)
class StageConfig:
    """One encoder stage: width, depth and attention geometry."""

    channels: int
    depth: int
    reduction: int
    heads: int
    ffn_ratio: int

    def validate(self, name: str = "stage"):
        if self.channels < 1:
            raise ConfigError(f"{name}.channels must be positive, got {self.channels}")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"{name}.depth must be in [1, {MAX_DEPTH}], got {self.depth}")
        if self.reduction < 1:
            raise ConfigError(f"{name}.reduction must be >= 1, got {self.reduction}")
        if self.heads < 1:
            raise ConfigError(f"{name}.heads must be >= 1, got {self.heads}")
        if self.channels % self.heads:
            raise ConfigError(
                f"{name}.channels ({self.channels}) must be divisible by heads ({self.heads})"
            )
        if self.ffn_ratio < 1:
            raise ConfigError(f"{name}.ffn_ratio must be >= 1, got {self.ffn_ratio}")


@dataclass(frozen=True)
class ModelConfig:
    """Full variant description: four stages plus decoder/head settings.

    The encoder is fixed apart from its stages: non-overlapping patch
    embeddings, the three-branch key/value reduction at every ratio, norm
    eps 1e-5, and a bias on every convolution and projection.
    """

    stages: tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    decoder_channels: int
    num_classes: int
    name: str = "custom"
    # Not fields: fixed values that only the benchmark's reference forward reads.
    patch_mode = "nonoverlap"
    norm_eps = 1e-5
    bypass_reduce_r1 = False

    def validate(self):
        if len(self.stages) != 4:
            raise ConfigError(f"stages must have exactly 4 entries, got {len(self.stages)}")
        side = INPUT_MULTIPLE
        for i, (s, stride) in enumerate(zip(self.stages, PATCH_STRIDES), start=1):
            s.validate(f"stages[{i}]")
            side //= stride
            if side % s.reduction:
                raise ConfigError(f"stages[{i}].reduction must divide {side}, which every "
                                  f"stage-{i} map side is a multiple of, got {s.reduction}")
        if self.decoder_channels < 1:
            raise ConfigError(f"decoder_channels must be positive, got {self.decoder_channels}")
        if not 2 <= self.num_classes <= MAX_NUM_CLASSES:
            raise ConfigError(f"num_classes must be in [2, {MAX_NUM_CLASSES}], got {self.num_classes}")

    @property
    def concat_channels(self) -> int:
        return sum(s.channels for s in self.stages)


def check_input_size(h: int, w: int, what: str):
    """The one input-size rule: both sides positive multiples of
    INPUT_MULTIPLE, at most MAX_INPUT_SIDE."""
    if not (0 < h <= MAX_INPUT_SIDE and 0 < w <= MAX_INPUT_SIDE) or h % INPUT_MULTIPLE or w % INPUT_MULTIPLE:
        raise ConfigError(f"{what} sides must be positive multiples of {INPUT_MULTIPLE} "
                          f"up to {MAX_INPUT_SIDE}, got width {w}, height {h}")


_STAGE_FIELDS = tuple(f.name for f in fields(StageConfig))
_MODEL_FIELDS = tuple(f.name for f in fields(ModelConfig))
# The JSON kind each annotated field type is read from (`stages` is a tuple).
_JSON_KINDS = {int: "an integer", str: "a string", tuple: "a list"}


def _read(cls, doc, where: str) -> dict:
    """The fields of dataclass `cls` from the JSON object `doc`: none unknown,
    every one without a default present, and each value of its annotated
    type's JSON kind.  Values are not converted."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown field(s): {', '.join(sorted(unknown))}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
    if missing:
        raise ConfigError(f"{where}: missing field(s): {', '.join(missing)}")
    hints = get_type_hints(cls)
    values = {}
    for key, value in doc.items():
        kind = get_origin(hints[key]) or hints[key]
        if type(value) is not (list if kind is tuple else kind):
            raise ConfigError(f"{where}.{key} must be {_JSON_KINDS[kind]}, got {value!r}")
        values[key] = value
    return values


def to_dict(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    d["stages"] = [asdict(s) for s in cfg.stages]
    return d


def from_dict(d: dict) -> ModelConfig:
    values = _read(ModelConfig, d, "config")
    values["stages"] = tuple(StageConfig(**_read(StageConfig, sd, f"stages[{i}]"))
                             for i, sd in enumerate(values["stages"], start=1))
    cfg = ModelConfig(**values)
    cfg.validate()
    return cfg


def dumps(cfg: ModelConfig) -> str:
    return json.dumps(to_dict(cfg), indent=2, sort_keys=False) + "\n"


# Shared geometry of the three standard variants: stage widths, per-stage
# key/value reduction ratios, head counts (head dim 64) and FFN expansion 4.
_CHANNELS = (64, 128, 320, 512)
_REDUCTIONS = (8, 4, 2, 1)
_HEADS = (1, 2, 5, 8)
_FFN_RATIO = 4


def _variant(name: str, depths: Sequence[int], decoder_channels: int, num_classes: int) -> ModelConfig:
    stages = tuple(
        StageConfig(channels=c, depth=d, reduction=r, heads=h, ffn_ratio=_FFN_RATIO)
        for c, d, r, h in zip(_CHANNELS, depths, _REDUCTIONS, _HEADS)
    )
    return ModelConfig(stages=stages, decoder_channels=decoder_channels,
                       num_classes=num_classes, name=name)


def ipt_t(num_classes: int = 150) -> ModelConfig:
    return _variant("ipt-t", (2, 2, 4, 2), 512, num_classes)


def ipt_s(num_classes: int = 150) -> ModelConfig:
    return _variant("ipt-s", (3, 4, 12, 3), 768, num_classes)


def ipt_b(num_classes: int = 150) -> ModelConfig:
    return _variant("ipt-b", (3, 6, 24, 2), 768, num_classes)


def micro(num_classes: int = 4) -> ModelConfig:
    """Desk-scale config for gradient checks and smoke training."""
    stages = tuple(
        StageConfig(channels=8, depth=1, reduction=r, heads=1, ffn_ratio=2)
        for r in _REDUCTIONS
    )
    return ModelConfig(stages=stages, decoder_channels=32, num_classes=num_classes, name="micro")


PRESETS = {"ipt-t": ipt_t, "ipt-s": ipt_s, "ipt-b": ipt_b, "micro": micro}


def load_model_config(path_or_name: str) -> ModelConfig:
    """Resolve a preset name, or parse a JSON config file.

    JSON syntax errors report line/column; semantic errors name the field.
    A file longer than MAX_CONFIG_CHARS raises ConfigError.
    """
    if path_or_name in PRESETS:
        return PRESETS[path_or_name]()
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_CONFIG_CHARS + 1)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read model config {path_or_name!r}: {e}") from e
    if len(text) > MAX_CONFIG_CHARS:
        raise ConfigError(f"{path_or_name}: longer than {MAX_CONFIG_CHARS} characters; not a model config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path_or_name}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except ValueError as e:  # an integer longer than int() reads (4300 digits by default)
        raise ConfigError(f"{path_or_name}: {e}") from None
    except RecursionError:
        raise ConfigError(f"{path_or_name}: JSON nested too deeply") from None
    return from_dict(doc)
