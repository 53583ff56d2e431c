"""Training and loss configuration, plus the flat `key = value` config format."""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_type_hints


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or missing required settings."""


#: Temperatures below this are rejected; the tilt exp(score / tau) is no
#: longer meaningful in float64 once tau underflows the score resolution.
MIN_TAU = 1e-8


def check_range(name: str, value, lo: float, hi: float) -> float:
    """``float(value)`` if it is finite and ``lo <= value < hi``.

    The one range rule for settings, flags and library arguments; NaN fails
    it, and so does an int that no float can hold. A failure is a
    :class:`ConfigError` that names the setting.
    """
    try:
        ok = lo <= value < hi and math.isfinite(value)
    except OverflowError:  # an int too large to convert to float
        ok = False
    if not ok:
        try:
            shown = f"{value}"
        except ValueError:  # str() refuses an int past Python's digit limit
            shown = f"an int of more than {sys.get_int_max_str_digits()} digits"
        raise ConfigError(f"{name} must be finite and lie in [{lo:g}, {hi:g}), got {shown}")
    return float(value)


def check_whole(name: str, value) -> int:
    """``int(value)`` if ``value`` is a whole number, such as ``5``, a numpy
    integer or ``5.0``; otherwise a :class:`ConfigError` that names the setting."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return whole


def check_values(name: str, values, lo: float) -> tuple:
    """``values`` as a tuple, if it is nonempty and every entry lies in ``[lo, inf)``.

    A bare number or a string is a :class:`ConfigError` that names the setting.
    """
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    values = tuple(values)
    if not values:
        raise ConfigError(f"{name} must be nonempty")
    for value in values:
        check_range(name, value, lo, math.inf)
    return values


class LossKind(enum.Enum):
    BPR = "bpr"
    BCE = "bce"
    MSE = "mse"
    SL = "sl"
    BSL = "bsl"
    SL_NOVAR = "sl_novar"


class BslForm(enum.Enum):
    CANONICAL = "canonical"
    PSEUDOCODE = "pseudocode"


class SamplingMode(enum.Enum):
    NEGATIVE_SAMPLING = "negative_sampling"
    IN_BATCH = "in_batch"


class NegSampler(enum.Enum):
    UNIFORM = "uniform"
    POPULARITY = "popularity"


#: Temperature grid used by sweeps unless overridden, densified around the
#: region where ranking quality usually peaks.
DEFAULT_TAU_GRID = (0.05, 0.07, 0.09, 0.10, 0.11, 0.12, 0.15, 0.20, 0.5, 1.0)


def _whole_float_as_int(value):
    """A whole float such as 5.0 as the int it names; any other value as is,
    so that range(), array shapes and the config text take it."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@functools.cache
def _int_settings(cls) -> tuple[str, ...]:
    """The fields of config dataclass ``cls`` declared ``int``: whole numbers only."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in fields(cls) if hints[f.name] is int)


@dataclass(frozen=True)
class LossSpec:
    """Which loss to optimize and its temperatures.

    ``tau`` drives the plain softmax loss; ``tau_pos``/``tau_neg`` are the
    separate positive/negative temperatures of the bilateral form;
    ``bce_mse_balance`` weights the negative term of the pointwise losses.
    """

    kind: LossKind = LossKind.SL
    tau: float = 0.1
    tau_pos: float = 0.1
    tau_neg: float = 0.1
    bce_mse_balance: float = 1.0
    bsl_form: BslForm = BslForm.PSEUDOCODE

    def validate(self) -> None:
        for name in ("tau", "tau_pos", "tau_neg"):
            check_range(name, getattr(self, name), MIN_TAU, math.inf)
        check_range("bce_mse_balance", self.bce_mse_balance, 0, math.inf)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, sampler, and noise settings for one training run."""

    embedding_dim: int = 64
    learning_rate: float = 1e-3
    l2_reg: float = 0.0
    n_negatives: int = 64
    batch_size: int = 1024
    epochs: int = 200
    sampling_mode: SamplingMode = SamplingMode.NEGATIVE_SAMPLING
    neg_sampler: NegSampler = NegSampler.UNIFORM
    popularity_exponent: float = 1.0
    r_noise: float = 0.0
    pos_noise_ratio: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in _int_settings(type(self)):
            object.__setattr__(self, name, _whole_float_as_int(getattr(self, name)))

    def validate(self) -> None:
        in_batch = self.sampling_mode is SamplingMode.IN_BATCH
        for name, lo in (("embedding_dim", 1), ("learning_rate", 0), ("l2_reg", 0),
                         ("n_negatives", 1), ("epochs", 0),
                         ("batch_size", 2 if in_batch else 1),
                         ("popularity_exponent", -math.inf), ("r_noise", 0),
                         ("rng_seed", 0)):
            check_range(name, getattr(self, name), lo, math.inf)
        for name in _int_settings(type(self)):
            check_whole(name, getattr(self, name))
        check_range("pos_noise_ratio", self.pos_noise_ratio, 0, 1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a CLI run needs: data paths, training, loss, eval cadence."""

    train_file: str = ""
    test_file: str = ""
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossSpec = field(default_factory=LossSpec)
    eval_every: int = 5
    eval_ks: tuple[int, ...] = (20,)
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID

    def __post_init__(self):
        object.__setattr__(self, "eval_every", _whole_float_as_int(self.eval_every))
        # a list is stored as a tuple, the form config_as_dict writes out
        if isinstance(self.eval_ks, (list, tuple)):
            object.__setattr__(self, "eval_ks", tuple(map(_whole_float_as_int, self.eval_ks)))
        if isinstance(self.tau_grid, list):
            object.__setattr__(self, "tau_grid", tuple(self.tau_grid))

    def validate(self) -> None:
        self.train.validate()
        self.loss.validate()
        check_range("eval_every", self.eval_every, 0, math.inf)
        check_whole("eval_every", self.eval_every)
        for k in check_values("eval_ks", self.eval_ks, 1):
            check_whole("eval_ks", k)
        check_values("tau_grid", self.tau_grid, MIN_TAU)


def _parse_enum(enum_cls):
    def parse(text: str):
        try:
            return enum_cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ConfigError(f"expected one of: {valid}, got {text!r}")
    return parse


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(t) for t in text.replace(",", " ").split())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(t) for t in text.replace(",", " ").split())


def _parser(hint):
    """The text parser of a setting declared with type ``hint``."""
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _parse_enum(hint)
    return {str: str, int: _parse_int, float: _parse_float,
            tuple[int, ...]: _parse_int_list, tuple[float, ...]: _parse_float_list}[hint]


def _config_keys() -> dict:
    """key -> (section, attribute, parser), read off the config dataclasses.

    Section "" targets ExperimentConfig, whose two section fields are skipped;
    every key is its field's name except ``loss``, for ``LossSpec.kind``.
    """
    keys = {}
    for section, cls in (("", ExperimentConfig), ("loss", LossSpec), ("train", TrainConfig)):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if not is_dataclass(hints[f.name]):
                key = "loss" if (section, f.name) == ("loss", "kind") else f.name
                keys[key] = (section, f.name, _parser(hints[f.name]))
    return keys


CONFIG_KEYS = _config_keys()


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines into a raw string map. `#` starts a comment."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        pairs[key] = value
    return pairs


def build_config(pairs: dict[str, str]) -> ExperimentConfig:
    """Materialize an ExperimentConfig from raw key/value strings."""
    top: dict[str, object] = {}
    loss_kw: dict[str, object] = {}
    train_kw: dict[str, object] = {}
    for key, raw in pairs.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        section, attr, parse = CONFIG_KEYS[key]
        value = parse(raw)
        {"": top, "loss": loss_kw, "train": train_kw}[section][attr] = value
    cfg = ExperimentConfig(train=TrainConfig(**train_kw),
                           loss=LossSpec(**loss_kw), **top)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    return build_config(parse_config_text(text, source=str(path)))


def config_as_dict(cfg: ExperimentConfig) -> dict[str, str]:
    """Flatten a config back to the string form used by files and manifests."""
    out: dict[str, str] = {}
    for key, (section, attr, _) in CONFIG_KEYS.items():
        obj = {"": cfg, "loss": cfg.loss, "train": cfg.train}[section]
        value = getattr(obj, attr)
        if isinstance(value, enum.Enum):
            out[key] = value.value
        elif isinstance(value, tuple):
            out[key] = ",".join(str(v) for v in value)
        else:
            out[key] = str(value)
    return out


def override_config(cfg: ExperimentConfig, pairs: dict[str, str]) -> ExperimentConfig:
    """Apply raw key/value overrides on top of an existing config."""
    return build_config({**config_as_dict(cfg), **pairs})


def spec_with_tau(spec: LossSpec, param: str, value: float) -> LossSpec:
    """Return a copy of ``spec`` with one temperature field replaced."""
    if param not in ("tau", "tau_pos", "tau_neg"):
        raise ValueError(f"unknown temperature parameter {param!r}")
    return replace(spec, **{param: value})
