"""gazeforge: deterministic eye-movement velocity and gaze data simulator.

Each export and each submodule loads on first use (PEP 562), so that
``import gazeforge`` and a config check do not pay for numpy.
"""
import importlib

__version__ = "0.1.0"

# Submodule -> the names it exports from the package.
_EXPORTS = {
    "params": (
        "BoundedDistribution", "DistKind", "FixationParams", "MappingParams",
        "MovementLabel", "NoiseSpec", "OrderingRule", "PursuitParams",
        "PursuitTrend", "RateSpec", "SaccadeParams", "SequenceSpec",
    ),
    "core": ("GazeTrace", "RandomSource", "SampledSignal", "TargetSet", "sample_bounded"),
    "errors": (
        "ConstraintError", "GazeforgeError", "MappingError", "ParameterError",
        "ParseError", "ValidationError",
    ),
    "evaluation": ("evaluate_dataset",),
    "generators": ("assemble", "gen_fixation", "gen_pursuit", "gen_saccade"),
    "mapping": ("SceneTargets", "fixation_walk", "map_to_gaze", "remap_real"),
    "noise": ("inject_noise",),
    "resampler": ("resample",),
    "saliency": ("SaliencyMap", "jitter_targets", "local_maxima", "spectral_residual"),
    "sequence": ("build_sequence",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as e:
        if e.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
