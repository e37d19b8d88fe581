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

import numpy as np
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


def test_image_targets_peak_below_the_frame():
    # The full map of a 640x480 frame, framed for local_maxima, peaks at
    # about 2.3 times the decoded frame. A frame with few salient cells (the
    # benchmark's have 3-7 % of them at threshold 0.1) stays below 1 time
    # it; one with more than _MAX_CELL_SHARE of them takes the full map.
    from conftest import blob_frame
    from gazeforge import saliency
    from gazeforge.fileio import read_pgm_bytes

    pixels = np.floor(blob_frame(5) * 255.0 + 0.5).astype(np.uint8)
    frame = read_pgm_bytes(b"P5\n640 480\n255\n" + pixels.tobytes())
    assert saliency._salient_cells(saliency._small_map(frame), 480, 640, 0.1) is not None
    assert len(saliency.image_targets(frame, 10.0, 0.1)) > 0  # warm: first-call allocations
    tracemalloc.start()
    try:
        saliency.image_targets(frame, 10.0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= frame.nbytes
