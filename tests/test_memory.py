"""Memory per base sample of the signal pipeline stays within a constant.

``generate_signal`` runs sequence -> generators -> resampler -> noise. Its
``tracemalloc`` peak (numpy reports its buffers to tracemalloc) is about
38 B per base sample at both sizes below. Timestamps materialized for the
base-rate signal add 8 B per sample (about 46 B in all) and break the
bound.
"""
from __future__ import annotations

import json
import tracemalloc

import pytest

from gazeforge import config
from gazeforge.cli import generate_signal
from gazeforge.core import RandomSource
from gazeforge.generators import assemble
from gazeforge.sequence import build_sequence

# generate_signal imports these stages on first use; import them before
# tracing so that their import is not counted.
import gazeforge.noise  # noqa: F401
import gazeforge.resampler  # noqa: F401

MAX_BYTES_PER_BASE_SAMPLE = 42


def _config(k: int):
    counts = {"fixation": 100 * k, "saccade": 90 * k, "smooth_pursuit": 10 * k}
    return config.read_config(json.dumps({
        "seed": 5,
        "sequence": {"counts": counts},
        "sampling": {"rate": {"min": 250.0, "max": 300.0}},
        "noise": {"fraction": 0.05},
    }))


@pytest.mark.parametrize("k", [1, 4])
def test_generate_signal_peak_per_base_sample(k):
    cfg = _config(k)
    rng = RandomSource(cfg.seed)
    seq = build_sequence(cfg.sequence, rng.derive(1))
    base = len(assemble(seq, cfg.fixation, cfg.saccade, cfg.pursuit,
                        cfg.base_rate_hz, rng.derive(2)))
    tracemalloc.start()
    try:
        signal = generate_signal(cfg, RandomSource(cfg.seed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert base > 40_000 * k  # 42,126 and 170,573 base samples
    assert len(signal) > 0
    assert peak / base <= MAX_BYTES_PER_BASE_SAMPLE
