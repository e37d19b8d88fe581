"""Memory per base sample of the signal pipeline stays within a constant.

``generate_signal`` runs sequence -> generators -> resampler -> noise. Its
``tracemalloc`` peak (numpy reports its buffers to tracemalloc) is about
38 B per base sample at both sizes below. Timestamps materialized for the
base-rate signal add 8 B per sample (about 46 B in all) and break the
bound.

``map_to_gaze`` keeps one row per sample: a signal with one 20,000-sample
fixation among 400 short runs peaks at about 4.4 times the signal's bytes
(the per-run walk that it replaced peaked at 10.4 times). A walk buffer
of the longest run times the runs would take over 100 times.
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
MAX_MAP_BYTES_PER_SIGNAL_BYTE = 11


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


def test_map_to_gaze_peak_with_one_long_fixation():
    from gazeforge.core import SampledSignal, TargetSet
    from gazeforge.mapping import SceneTargets, map_to_gaze
    from gazeforge.params import MappingParams, MovementLabel

    data = np.random.default_rng(0)
    lengths = data.integers(3, 9, 400)
    lengths[200] = 20_000  # a fixation: the runs alternate, fixations first
    labels = np.repeat(np.tile([MovementLabel.FIXATION, MovementLabel.SACCADE], 200),
                       lengths).astype(np.uint8)
    ts = np.cumsum(data.uniform(0.003, 0.004, len(labels)))
    signal = SampledSignal(ts, data.uniform(0.0, 500.0, len(labels)), labels)
    points = [(x, y, 1.0) for x, y in data.uniform(10.0, 400.0, (30, 2)).tolist()]
    scene = SceneTargets.from_static(TargetSet(points, 640, 480))
    p = MappingParams(30.0, 15.0, 10.0)
    map_to_gaze(signal, scene, p, RandomSource(1))  # warm: first-call allocations
    tracemalloc.start()
    try:
        map_to_gaze(signal, scene, p, RandomSource(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    signal_bytes = ts.nbytes + signal.velocities.nbytes + labels.nbytes
    assert peak <= MAX_MAP_BYTES_PER_SIGNAL_BYTE * signal_bytes
