"""The run's vocabulary without numpy: movement labels, bounded
distributions, every stage's parameter type (a ``record``: no dataclass
code to compile at start) and the constants that the config check needs.

A config check, ``--help`` and a config error load only this module,
``errors`` and ``config``, so they pay no numpy import. The stage
modules import these types from here.
"""
from __future__ import annotations

import math
from enum import Enum, IntEnum
from types import SimpleNamespace

from .errors import ParameterError, ParseError


MISSING = object()  # the default of a field that has none


def record(cls=None, *, frozen: bool = False):
    """Make ``cls`` a value type over its annotated fields, like ``dataclass``
    but from shared methods, not code compiled per class at every CLI start:
    ``__init__`` (by position or keyword, a fresh copy of a list default, then
    ``__post_init__``), ``__eq__`` and ``__repr__``; a frozen type also hashes
    its fields and refuses to assign or delete an attribute."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__annotations__)  # its own: no record subclasses another
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    assign = object.__setattr__ if frozen else setattr

    def values(self) -> tuple:
        return tuple([getattr(self, n) for n in names])

    def frozen_field(self, key, *value):
        raise AttributeError(f"cannot assign to or delete field {key!r}")

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args), **kwargs)
        # Too many, repeated, unknown or missing arguments.
        if len(given) != len(args) + len(kwargs) or given.keys() | defaults.keys() != set(names):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        for n in names:
            if n not in given:  # a default; a list is copied
                given[n] = list(defaults[n]) if type(defaults[n]) is list else defaults[n]
            assign(self, n, given[n])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return values(self) == values(other) if same else NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = (lambda self: hash(values(self))) if frozen else None  # as dataclass
    if frozen:
        cls.__setattr__ = cls.__delattr__ = frozen_field
    cls._fields = tuple(SimpleNamespace(name=n, default=defaults.get(n, MISSING)) for n in names)
    return cls


def fields(obj) -> tuple:
    """A record's fields in order, each with a ``name`` and ``default`` (or MISSING)."""
    return obj._fields


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes``, checked by its ``__init__``."""
    return obj.__class__(**{**{f.name: getattr(obj, f.name) for f in fields(obj)}, **changes})


class MovementLabel(IntEnum):
    FIXATION = 0
    SACCADE = 1
    SMOOTH_PURSUIT = 2
    NOISE = 3


# Names used in CSV files and config documents.
LABEL_NAMES = {
    MovementLabel.FIXATION: "FIX",
    MovementLabel.SACCADE: "SACC",
    MovementLabel.SMOOTH_PURSUIT: "SP",
    MovementLabel.NOISE: "NOISE",
}
NAME_LABELS = {v: k for k, v in LABEL_NAMES.items()}


class DistKind(IntEnum):
    UNIFORM = 0
    NORMAL = 1


@record(frozen=True)
class BoundedDistribution:
    """A clamped random source: uniform on [min, max] or a normal centered
    at the bound midpoint with the given std, clamped into [min, max]."""

    kind: DistKind
    min: float
    max: float
    std: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.min) or not math.isfinite(self.max):
            raise ParameterError("distribution bounds must be finite")
        if self.min > self.max:
            raise ParameterError(
                f"distribution min {self.min} exceeds max {self.max}"
            )
        if self.std < 0:
            raise ParameterError(f"distribution std must be >= 0, got {self.std}")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "BoundedDistribution":
        return cls(DistKind.UNIFORM, lo, hi)

    @classmethod
    def normal(cls, lo: float, hi: float, std: float) -> "BoundedDistribution":
        return cls(DistKind.NORMAL, lo, hi, std)

    @classmethod
    def fixed(cls, value: float) -> "BoundedDistribution":
        return cls(DistKind.UNIFORM, value, value)


@record(frozen=True)
class OrderingRule:
    """AFTER_EACH: every `first` is immediately followed by `second`.
    BEFORE: every `second` is immediately preceded by `first`."""

    AFTER_EACH = "after_each"
    BEFORE = "before"

    kind: str
    first: MovementLabel
    second: MovementLabel

    def __post_init__(self):
        if self.kind not in (self.AFTER_EACH, self.BEFORE):
            raise ParameterError(f"unknown ordering rule kind {self.kind!r}")
        if self.first == self.second:
            raise ParameterError("ordering rule types must differ")

    def __str__(self) -> str:
        if self.kind == self.AFTER_EACH:
            return f"after each {self.first.name} a {self.second.name}"
        return f"before each {self.second.name} a {self.first.name}"


@record
class SequenceSpec:
    """Either target quantities per type, a total length (uniform mode),
    or a fully explicit sequence."""

    counts: dict[MovementLabel, int] | None = None
    constraints: list[OrderingRule] = []  # a fresh list per instance
    explicit: list[MovementLabel] | None = None
    length: int | None = None

    def __post_init__(self):
        if self.explicit is not None:
            if not self.explicit:
                raise ParameterError("explicit sequence must be non-empty")
            return
        if self.counts is not None:
            if any(c < 0 for c in self.counts.values()):
                raise ParameterError("sequence counts must be non-negative")
            if sum(self.counts.values()) < 1:
                raise ParameterError("sequence counts must sum to at least 1")
        elif self.length is not None:
            if self.length < 1:
                raise ParameterError("sequence length must be >= 1")
        else:
            raise ParameterError("sequence spec needs counts, length or explicit")


class PursuitTrend(Enum):
    CONSTANT = "constant"
    LINEAR_INCREASING = "linear_increasing"
    LINEAR_DECREASING = "linear_decreasing"


@record(frozen=True)
class FixationParams:
    duration: BoundedDistribution  # seconds
    base_velocity: float  # deg/s, mean drift level
    consistency: BoundedDistribution  # deg/s fluctuation amplitude

    def __post_init__(self):
        if self.duration.min <= 0:
            raise ParameterError("fixation.duration must have min > 0")
        if self.base_velocity < 0:
            raise ParameterError("fixation.base_velocity must be >= 0")


@record(frozen=True)
class SaccadeParams:
    duration: BoundedDistribution  # seconds
    peak_velocity: BoundedDistribution  # deg/s
    skewness: BoundedDistribution  # dimensionless, > 0
    consistency: BoundedDistribution  # deg/s jitter

    def __post_init__(self):
        if self.duration.min <= 0:
            raise ParameterError("saccade.duration must have min > 0")
        if self.peak_velocity.min < 0:
            raise ParameterError("saccade.peak_velocity must have min >= 0")
        if self.skewness.min <= 0:
            raise ParameterError("saccade.skewness must have min > 0")


@record(frozen=True)
class PursuitParams:
    duration: BoundedDistribution  # seconds
    velocity: BoundedDistribution  # deg/s plateau
    onset_duration: BoundedDistribution  # seconds
    trend: PursuitTrend
    trend_end_velocity: BoundedDistribution  # deg/s, linear trends only
    consistency: BoundedDistribution  # deg/s jitter

    def __post_init__(self):
        if self.duration.min <= 0:
            raise ParameterError("pursuit.duration must have min > 0")
        if self.onset_duration.min <= 0:
            raise ParameterError("pursuit.onset_duration must have min > 0")
        for name, dist in (
            ("velocity", self.velocity),
            ("trend_end_velocity", self.trend_end_velocity),
        ):
            if dist.min < 0:
                raise ParameterError(f"pursuit.{name} must have min >= 0")


# Largest Gamma shape accepted; skewness below 2e-4 maps above it.
MAX_GAMMA_SHAPE = 1e8

# Smallest saccade skewness: skew_to_shape(MIN_SKEWNESS) == MAX_GAMMA_SHAPE
# (2e-4), and smaller skewness draws give larger shapes.
MIN_SKEWNESS = 2.0 / math.sqrt(MAX_GAMMA_SHAPE)


@record(frozen=True)
class RateSpec:
    """Target sampling rate; min == max gives a constant rate, otherwise the
    instantaneous rate is re-drawn for every output sample."""

    rate: BoundedDistribution  # Hz

    def __post_init__(self):
        if self.rate.min <= 0:
            raise ParameterError("sampling rate must have min > 0")


MODE_REPLACE = "replace"
MODE_ADD = "add"


@record(frozen=True)
class NoiseSpec:
    fraction: float  # portion of samples affected, [0, 1]
    location_dist: DistKind  # placement of affected indices
    magnitude: BoundedDistribution  # deg/s
    mode: str = MODE_REPLACE
    burst_length: int = 1  # contiguous run length (blinks: magnitude 0, burst > 1)

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ParameterError(f"noise fraction must be in [0,1], got {self.fraction}")
        if self.mode not in (MODE_REPLACE, MODE_ADD):
            raise ParameterError(f"noise mode must be replace|add, got {self.mode!r}")
        if self.burst_length < 1:
            raise ParameterError("noise burst_length must be >= 1")


@record(frozen=True)
class MappingParams:
    pixels_per_degree: float = 30.0
    max_path_deviation: float = 0.0  # px, off the straight line
    fixation_dispersion: float = 0.0  # px, scatter radius around the center
    target_jitter_px: float = 5.0

    def __post_init__(self):
        if self.pixels_per_degree <= 0:
            raise ParameterError("pixels_per_degree must be > 0")
        for name in ("max_path_deviation", "fixation_dispersion", "target_jitter_px"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")


REMAP_SAME_STIMULUS = "same_stimulus"
REMAP_NEW_STIMULUS = "new_stimulus"

DEFAULT_REPEATS = 10  # simulations per segment in evaluate


def decode_utf8(data: bytes, json: bool = False) -> str:
    """``data`` as UTF-8 text; a ParseError names the row and byte of the
    first byte that is not UTF-8, with rows broken as ``str.splitlines``
    breaks them, like the CSV readers. For a JSON document it names the
    line, counted at "\\n" as JSON errors count them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        if json:
            at = "line %d" % (data.count(b"\n", 0, e.start) + 1)
        else:
            at = "row %d" % len((data[: e.start].decode() + "x").splitlines())
        bad = f"invalid UTF-8 byte 0x{data[e.start]:02x}"
        raise ParseError(bad, f"{at}, byte {e.start}") from None
