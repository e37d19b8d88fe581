"""End-to-end command-line behavior: determinism, overrides, exit codes."""
from __future__ import annotations

import hashlib
import json
import os
import stat
import sys

import numpy as np
import pytest

from gazeforge import cli
from gazeforge.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from gazeforge.config import MODES, SCHEMA, read_config
from gazeforge.errors import ParameterError, ValidationError
from gazeforge.fileio import pgm_bytes, read_pgm, read_velocity_csv
from test_golden import GOLDEN, _case


def write_config(tmp_path, name="cfg.json", **doc):
    base = {"mode": "velocity", "seed": 7}
    base.update(doc)
    p = tmp_path / name
    p.write_text(json.dumps(base))
    return str(p)


def write_stimulus(tmp_path, name="stim.pgm", size=(48, 64), seed=3):
    rng = np.random.default_rng(seed)
    img = rng.random(size) * 0.2
    img[12:18, 20:26] = 1.0
    img[30:36, 45:51] = 0.9
    p = tmp_path / name
    p.write_bytes(pgm_bytes(img))
    return str(p)


def run(argv):
    return main(argv)


def test_generate_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out.csv")
    assert run(["generate", "--config", cfg, "--output", out]) == EXIT_OK
    sig = read_velocity_csv(out)
    assert len(sig) > 0
    assert "generate:" in capsys.readouterr().out


def test_generate_deterministic_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["generate", "--config", cfg, "--output", a]) == EXIT_OK
    assert run(["generate", "--config", cfg, "--output", b]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()


def test_seed_flag_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(["generate", "--config", cfg, "--output", a])
    run(["generate", "--config", cfg, "--seed", "99", "--output", b])
    assert open(a, "rb").read() != open(b, "rb").read()


def test_env_seed_used_and_flag_wins(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    a, b, c = (str(tmp_path / f"{n}.csv") for n in "abc")
    run(["generate", "--config", cfg, "--seed", "99", "--output", a])
    monkeypatch.setenv("GAZEFORGE_SEED", "99")
    run(["generate", "--config", cfg, "--output", b])
    assert open(a, "rb").read() == open(b, "rb").read()
    # explicit flag beats the environment
    run(["generate", "--config", cfg, "--seed", "7", "--output", c])
    assert open(c, "rb").read() != open(b, "rb").read()


def test_set_override_changes_behavior(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o.csv")
    run([
        "generate", "--config", cfg, "--output", out,
        "--set", "noise.fraction=0.5",
        "--set", "sequence.counts.fixation=2",
        "--set", "sequence.counts.saccade=1",
    ])
    sig = read_velocity_csv(out)
    n_noise = int(np.count_nonzero(sig.labels == 3))
    assert n_noise == round(0.5 * len(sig))


def test_bad_override_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o.csv")
    code = run([
        "generate", "--config", cfg, "--output", out, "--set", "noize.fraction=0.5"
    ])
    assert code == EXIT_CONFIG
    assert "noize" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_output_flag_beats_config_output(tmp_path):
    in_file = str(tmp_path / "in_file.csv")
    cfg = write_config(tmp_path, paths={"output": in_file})
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", cfg, "--output", out]) == EXIT_OK
    assert os.path.exists(out) and not os.path.exists(in_file)


def test_output_in_missing_folder_is_config_error(tmp_path, capsys):
    # Used to exit 3 from the writer, naming its temp file.
    cfg = write_config(tmp_path)
    out = str(tmp_path / "missing_dir" / "o.csv")
    assert run(["generate", "--config", cfg, "--output", out]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: paths.output: its folder does not exist: {out}\n"


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code = run(["generate", "--config", str(tmp_path / "nope.json"),
                "--output", str(tmp_path / "o.csv")])
    assert code == EXIT_IO


def test_invalid_json_config_is_io_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(["generate", "--config", str(p),
                "--output", str(tmp_path / "o.csv")]) == EXIT_IO


def test_invalid_value_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, fixation={"duration": {"min": 0.5, "max": 0.2}})
    code = run(["generate", "--config", cfg, "--output", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    assert "fixation.duration" in capsys.readouterr().err


def test_missing_output_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["generate", "--config", cfg]) == EXIT_CONFIG
    assert "paths.output" in capsys.readouterr().err


def test_saliency_writes_map_and_targets(tmp_path, capsys):
    stim = write_stimulus(tmp_path)
    targets = str(tmp_path / "targets.csv")
    cfg = write_config(
        tmp_path, mode="saliency",
        paths={"stimulus": stim, "targets_output": targets},
    )
    out = str(tmp_path / "sal.pgm")
    assert run(["saliency", "--config", cfg, "--output", out]) == EXIT_OK
    grid = read_pgm(out)
    assert grid.shape == (48, 64)
    lines = open(targets).read().splitlines()
    assert lines[0] == "x_px,y_px,weight"
    assert len(lines) >= 2


def test_map_static_over_stimulus(tmp_path):
    stim = write_stimulus(tmp_path)
    cfg = write_config(
        tmp_path, mode="map_static",
        sequence={"counts": {"fixation": 3, "saccade": 2}},
        paths={"stimulus": stim},
    )
    out = str(tmp_path / "gaze.csv")
    assert run(["map", "--config", cfg, "--output", out]) == EXIT_OK
    text = open(out).read()
    assert text.startswith("t_ms,x_px,y_px,label\n")
    for line in text.splitlines()[1:]:
        _, x, y, _ = line.split(",")
        assert 0.0 <= float(x) < 64 and 0.0 <= float(y) < 48


def test_map_from_velocity_input(tmp_path):
    stim = write_stimulus(tmp_path)
    vel = str(tmp_path / "v.csv")
    gen_cfg = write_config(tmp_path, name="gen.json")
    run(["generate", "--config", gen_cfg, "--output", vel])
    cfg = write_config(
        tmp_path, mode="map_static",
        paths={"stimulus": stim, "velocity_input": vel},
    )
    out = str(tmp_path / "gaze.csv")
    assert run(["map", "--config", cfg, "--output", out]) == EXIT_OK
    n_vel = len(open(vel).read().splitlines())
    n_gaze = len(open(out).read().splitlines())
    assert n_gaze == n_vel


def test_map_dynamic_over_frames(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        write_stimulus(frames, name=f"frame{i:03d}.pgm", seed=i)
    cfg = write_config(
        tmp_path, mode="map_dynamic",
        sequence={"counts": {"fixation": 2, "saccade": 1}},
        mapping={"frame_rate": 10},
        paths={"frames_dir": str(frames)},
    )
    out = str(tmp_path / "gaze.csv")
    assert run(["map", "--config", cfg, "--output", out]) == EXIT_OK


def test_map_over_frames_of_two_sizes_is_numeric_error(tmp_path, capsys):
    # Every sample used to be clipped into the first frame's bounds (exit 0).
    frames = tmp_path / "frames"
    frames.mkdir()
    write_stimulus(frames, name="f0.pgm")
    write_stimulus(frames, name="f1.pgm", size=(120, 160))
    cfg = write_config(tmp_path, mode="map_dynamic", paths={"frames_dir": str(frames)})
    out = tmp_path / "gaze.csv"
    assert run(["map", "--config", cfg, "--output", str(out)]) == EXIT_NUMERIC
    assert "frame at t=0.0333333 s is 160x120 px, not 64x48 px" in capsys.readouterr().err
    assert not out.exists()


def test_precomputed_saliency_map_and_one_frame_of_maps_agree(tmp_path):
    # A saliency map file for a stimulus, and a folder of maps named as the
    # frames, are read instead of the images: with one frame the two scenes
    # give the same bytes, although the frame itself is noise.
    stim = write_stimulus(tmp_path)
    smap = str(tmp_path / "map.pgm")
    sal = write_config(tmp_path, "s.json", mode="saliency", paths={"stimulus": stim})
    assert run(["saliency", "--config", sal, "--output", smap]) == EXIT_OK
    frames, maps = tmp_path / "frames", tmp_path / "maps"
    frames.mkdir()
    maps.mkdir()
    (frames / "f0.pgm").write_bytes(pgm_bytes(np.random.default_rng(0).random((48, 64))))
    (maps / "f0.pgm").write_bytes(open(smap, "rb").read())
    seq = {"counts": {"fixation": 3, "saccade": 2}}
    # The map file wins over a stimulus given beside it.
    static = write_config(tmp_path, "a.json", mode="map_static", sequence=seq,
                          paths={"saliency_map": smap, "stimulus": str(frames / "f0.pgm")})
    dynamic = write_config(tmp_path, "b.json", mode="map_dynamic", sequence=seq,
                           paths={"frames_dir": str(frames), "saliency_map": str(maps)})
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(["map", "--config", static, "--output", a]) == EXIT_OK
    assert run(["map", "--config", dynamic, "--output", b]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("override, field", [
    ("mapping.frame_rate=0", "mapping.frame_rate"),
    ("mapping.fixation_dispersion=NaN", "mapping.fixation_dispersion"),
    ("mapping.target_threshold=1.5", "mapping.target_threshold"),
])
def test_map_bad_mapping_number_is_config_error(tmp_path, capsys, override, field):
    # frame_rate 0 used to raise ZeroDivisionError (exit 1); a NaN
    # dispersion ran and wrote nan coordinates (exit 0); a threshold above a
    # saliency map's maximum of 1 ran every stage and then exited 4.
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(3):
        write_stimulus(frames, name=f"frame{i:03d}.pgm", seed=i)
    cfg = write_config(
        tmp_path, mode="map_dynamic",
        sequence={"counts": {"fixation": 2, "saccade": 1}},
        paths={"frames_dir": str(frames)},
    )
    out = str(tmp_path / "gaze.csv")
    assert run(["map", "--config", cfg, "--output", out, "--set", override]) \
        == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not os.path.exists(out)


def test_map_without_targets_fails_before_the_signal(tmp_path, capsys, monkeypatch):
    # A flat stimulus has no saliency peak; map says so without making the
    # signal first.
    def no_signal(cfg, rng):
        raise AssertionError("generate_signal called before the scene targets")

    monkeypatch.setattr(cli, "generate_signal", no_signal)
    stim = tmp_path / "flat.pgm"
    stim.write_bytes(pgm_bytes(np.zeros((48, 64))))
    cfg = write_config(tmp_path, mode="map_static", paths={"stimulus": str(stim)})
    out = str(tmp_path / "gaze.csv")
    assert run(["map", "--config", cfg, "--output", out]) == EXIT_NUMERIC
    assert "no fixation targets" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["generate", "map"])
def test_signal_shorter_than_one_output_interval_is_numeric_error(tmp_path, capsys, command):
    # generate used to write a header-only CSV that evaluate refuses (exit 3),
    # and map to fail on the empty signal.
    cfg = write_config(
        tmp_path, sequence={"counts": {"fixation": 1}},
        sampling={"rate": {"min": 2, "max": 2}}, paths={"stimulus": write_stimulus(tmp_path)},
    )
    out = str(tmp_path / "o.csv")
    assert run([command, "--config", cfg, "--output", out]) == EXIT_NUMERIC
    assert "ends before the first output sample at t=0.5 s" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_remap_same_stimulus(tmp_path):
    stim = write_stimulus(tmp_path)
    gaze = str(tmp_path / "real.csv")
    cfg0 = write_config(
        tmp_path, name="m.json", mode="map_static",
        sequence={"counts": {"fixation": 3, "saccade": 2}},
        paths={"stimulus": stim},
    )
    run(["map", "--config", cfg0, "--output", gaze])
    cfg = write_config(
        tmp_path, name="r.json", mode="remap", paths={"real_data": gaze}
    )
    out = str(tmp_path / "remapped.csv")
    assert run(["remap", "--config", cfg, "--output", out]) == EXIT_OK
    assert len(open(out).read().splitlines()) == len(open(gaze).read().splitlines())


def test_evaluate_produces_summary(tmp_path):
    vel = str(tmp_path / "v.csv")
    gen_cfg = write_config(tmp_path, name="g.json")
    run(["generate", "--config", gen_cfg, "--output", vel])
    errs = str(tmp_path / "errs.csv")
    cfg = write_config(
        tmp_path, name="e.json", mode="evaluate",
        paths={"real_data": vel, "errors_output": errs},
    )
    out = str(tmp_path / "summary.csv")
    assert run(["evaluate", "--config", cfg, "--output", out, "--repeats", "2"]) == EXIT_OK
    lines = open(out).read().splitlines()
    assert lines[0] == "type,stat,value"
    assert any(line.startswith("FIX,mean,") for line in lines)
    assert os.path.getsize(errs) > 0


def test_evaluate_all_noise_file(tmp_path, capsys):
    # No segment to re-simulate: an empty summary and an empty errors file,
    # not a failure.
    real = tmp_path / "v.csv"
    real.write_text("t_ms,velocity_deg_s,label\n1.000,5,NOISE\n2.000,400,NOISE\n3.000,7,NOISE\n")
    out, errs = tmp_path / "summary.csv", tmp_path / "errs.csv"
    cfg = write_config(tmp_path, paths={"real_data": str(real), "errors_output": str(errs)})
    assert run(["evaluate", "--config", cfg, "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"evaluate: 0 movement types -> {out}, pooled errors -> {errs}\n"
    )
    assert out.read_bytes() == b"type,stat,value\n"
    assert errs.read_bytes() == b"\n"


@pytest.mark.parametrize("repeats", ["0", "-1", str(10**20)])
def test_repeats_out_of_range_is_usage_error(tmp_path, capsys, repeats):
    # 0 used to exit 4 once the data had loaded, and 10**20 to exit 1 with
    # numpy's "Maximum allowed dimension exceeded" traceback.
    _, doc = _case("evaluate_errors", tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "summary.csv"
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--config", str(cfg), "--output", str(out), "--repeats", repeats])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument --repeats: expected an integer from 1 to {sys.maxsize // 8}" in err
    assert repr(repeats) in err
    assert not out.exists()


FLAT_PGM = b"P5 64 48 255\n" + bytes(64 * 48)  # no saliency peak, so no target


@pytest.mark.parametrize("command, inputs, paths, code", [
    ("generate", {}, {}, EXIT_NUMERIC),  # generate_signal raises below
    ("map", {"flat.pgm": FLAT_PGM}, {"stimulus": "flat.pgm"}, EXIT_NUMERIC),
    ("remap", {"real.csv": b"t_ms,x_px,y_px,label\n4,1,2,SACC\n8,9,6,SACC\n12,9,7,SP\n"},
     {"real_data": "real.csv"}, EXIT_NUMERIC),  # same_stimulus without a FIX run
    ("saliency", {"flat.pgm": FLAT_PGM},
     {"stimulus": "flat.pgm", "targets_output": "targets.csv"}, EXIT_NUMERIC),
    ("evaluate", {"real.csv": b"t_ms,velocity_deg_s,label\n1.0,oops,FIX\n"},
     {"real_data": "real.csv", "errors_output": "errors.csv"}, EXIT_IO),
], ids=["generate", "map", "remap", "saliency", "evaluate"])
def test_failed_run_leaves_no_partial_output(tmp_path, monkeypatch, command, inputs, paths,
                                             code):
    # Each subcommand fails after its config loads, with a file already at
    # every output path: each keeps its bytes, and no temp file is left.
    def no_signal(cfg, rng):
        raise ParameterError("no signal")

    if command == "generate":
        monkeypatch.setattr(cli, "generate_signal", no_signal)
    for name, data in inputs.items():
        (tmp_path / name).write_bytes(data)
    paths = {key: str(tmp_path / name) for key, name in paths.items()}
    out = str(tmp_path / "out")
    outputs = [out] + [path for key, path in paths.items() if key.endswith("_output")]
    for path in outputs:
        with open(path, "wb") as fh:
            fh.write(b"sentinel " + path.encode())
    cfg = write_config(tmp_path, paths=paths)
    assert run([command, "--config", cfg, "--output", out]) == code
    for path in outputs:
        with open(path, "rb") as fh:
            assert fh.read() == b"sentinel " + path.encode()
    assert not list(tmp_path.glob(".gazeforge-*.tmp"))


def test_pursuit_onset_past_duration_is_config_error(tmp_path, capsys):
    # Used to load, then fail every run after 100 onset redraws (exit 4).
    cfg = write_config(
        tmp_path,
        sequence={"counts": {"fixation": 2, "smooth_pursuit": 1}},
        pursuit={
            "duration": {"min": 0.2, "max": 0.3},
            "onset_duration": {"min": 0.3, "max": 0.4},
        },
    )
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", cfg, "--output", out]) == EXIT_CONFIG
    assert "pursuit.onset_duration.min" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc, field", [
    ({"saccade": {"skewness": {"min": 2.5, "max": 3.0}}}, "saccade.skewness.max"),
    ({"base_rate_hz": 40}, "saccade.duration.min"),
    ({"sequence": {"counts": {"fixation": 2, "smooth_pursuit": 1}},
      "pursuit": {"duration": {"min": 0.2, "max": 0.4},
                  "onset_duration": {"min": 0.35, "max": 0.4}}},
     "pursuit.onset_duration.min"),
])
def test_seed_dependent_failure_is_config_error(tmp_path, capsys, doc, field):
    # Each of these used to pass validation, then exit 4 mid-run on seed 0.
    cfg = write_config(tmp_path, **doc)
    out = str(tmp_path / "o.csv")
    for seed in ("0", "1"):
        assert run(["generate", "--config", cfg, "--seed", seed, "--output", out]) \
            == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize("doc, field", [
    ({"base_rate_hz": 250, "sequence": {"counts": {"fixation": 40}},
      "fixation": {"duration": {"min": 0.001, "max": 0.05}}}, "fixation.duration.min"),
    ({"sequence": {"counts": {"smooth_pursuit": 40}},
      "pursuit": {"duration": {"min": 0.0004, "max": 0.01},
                  "onset_duration": {"min": 0.0001, "max": 0.0003}}}, "pursuit.duration.min"),
])
def test_duration_under_one_sample_is_config_error_on_every_seed(tmp_path, capsys, doc, field):
    # Each used to load, then exit 4 on about half of these seeds: a duration
    # draw under half a base sample "yields zero samples".
    cfg = write_config(tmp_path, **doc)
    out = str(tmp_path / "o.csv")
    for seed in range(30):
        assert run(["generate", "--config", cfg, "--seed", str(seed), "--output", out]) \
            == EXIT_CONFIG
        assert f"{field}: " in capsys.readouterr().err
        assert not os.path.exists(out)


def test_tiny_skewness_is_config_error(tmp_path, capsys):
    # Used to load, then exit 4 mid-run: a skewness draw near 1e-9 gives a
    # Gamma shape near 1e17, whose density overflows.
    cfg = write_config(tmp_path, saccade={"skewness": {"min": 1e-9, "max": 1e-8}})
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", cfg, "--seed", "5", "--output", out]) \
        == EXIT_CONFIG
    assert "saccade.skewness.min" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc", [
    # At 1e308 Hz every default duration is past the limit too; fixation is
    # checked first.
    {"base_rate_hz": 1e308, "saccade": {"duration": {"min": 0.03, "max": 1e308}}},
    {"fixation": {"duration": {"min": 0.1, "max": 1e300}}},
])
def test_oversized_duration_is_config_error(tmp_path, capsys, doc):
    # Each used to load, then exit 1 with a traceback: an inf sample count,
    # or an array too long to allocate.
    cfg = write_config(tmp_path, **doc)
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", cfg, "--output", out]) == EXIT_CONFIG
    assert "fixation.duration.max: " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_frames_dir_without_pgm_is_config_error(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "notes.txt").write_text("not a frame\n")
    cfg = write_config(tmp_path, paths={"frames_dir": str(frames)})
    out = str(tmp_path / "o.csv")
    assert run(["map", "--config", cfg, "--output", out]) == EXIT_CONFIG
    assert f"paths.frames_dir: no PGM frames in {frames}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc, field", [
    ({"fixation": 5}, "fixation"),
    ({"fixation": []}, "fixation"),
    ({"fixation": "abc"}, "fixation"),
    ({"sequence": 5}, "sequence"),
    ({"sequence": {"constraints": 5}}, "sequence.constraints"),
    ({"sequence": {"explicit": [{}]}}, "sequence.explicit[0]"),
    ({"sequence": {"explicit": []}}, "sequence"),
    ({"paths": []}, "paths"),
    ({"base_rate_hz": 10**400}, "base_rate_hz"),
])
def test_malformed_config_value_is_config_error(tmp_path, capsys, doc, field):
    # Each of these used to crash with a traceback (exit 1), or with exit 4
    # mid-run for the empty explicit sequence, or blame key 'a' for "abc".
    cfg = write_config(tmp_path, **doc)
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", cfg, "--output", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "unknown key" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key", ["fixation", "sequence", "noise", "paths", "mode"])
def test_null_reads_as_absent(tmp_path, key):
    absent, null = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(["generate", "--config", write_config(tmp_path, "a.json"), "--output", absent])
    cfg = write_config(tmp_path, "b.json", **{key: None})
    assert run(["generate", "--config", cfg, "--output", null]) == EXIT_OK
    assert open(absent, "rb").read() == open(null, "rb").read()


def _keys_in_help(capsys, monkeypatch) -> set[tuple[str, str]]:
    """(section, key) for each config key named in a subcommand's --help;
    the section of a root key is ""."""
    monkeypatch.setenv("COLUMNS", "10000")  # no line wrapping inside a key
    named = set()
    for name in ("generate", "map", "remap", "saliency", "evaluate"):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        text = capsys.readouterr().out.split("Config keys read: ")[1].strip()
        named |= {tuple(key.rpartition(".")[::2]) for key in text.split(", ")}
    return named


def test_help_keys_are_config_keys(capsys, monkeypatch):
    named = _keys_in_help(capsys, monkeypatch)
    assert len(named) > 40
    for section, key in named:
        for name, known in ((key, True), (key + "x", False)):
            # null reads as absent, so only an unknown key can fail on its own
            doc = {section: {name: None}} if section else {name: None}
            try:
                read_config(json.dumps(doc))
                err = ""
            except ValidationError as e:
                err = str(e)
            assert ("unknown key" not in err) == known, (section, name, err)


def test_every_schema_key_is_in_some_help(capsys, monkeypatch):
    named = _keys_in_help(capsys, monkeypatch)
    assert {(s, key) for s, keys in SCHEMA.items() for key in keys} <= named


def test_remap_rejects_time_going_back(tmp_path, capsys):
    gaze = tmp_path / "real.csv"
    gaze.write_text(
        "t_ms,x_px,y_px,label\n"
        "0.000,10.0,10.0,FIX\n"
        "10.000,11.0,10.0,FIX\n"
        "5.000,30.0,20.0,SACC\n"
        "15.000,40.0,25.0,FIX\n"
        "20.000,41.0,25.0,FIX\n"
    )
    cfg = write_config(tmp_path, mode="remap", paths={"real_data": str(gaze)})
    out = str(tmp_path / "remapped.csv")
    assert run(["remap", "--config", cfg, "--output", out]) == EXIT_IO
    assert "timestamps not strictly increasing (at row 4)" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_non_utf8_csv_is_io_error(tmp_path, capsys):
    real = tmp_path / "real.csv"
    real.write_bytes(b"t_ms,velocity_deg_s,label\n1.0,2.0,FIX\n2.0,3\xff,FIX\n")
    cfg = write_config(tmp_path, mode="evaluate", paths={"real_data": str(real)})
    out = str(tmp_path / "summary.csv")
    assert run(["evaluate", "--config", cfg, "--output", out]) == EXIT_IO
    assert "invalid UTF-8 byte 0xff (at row 3, byte 43)" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc, where", [
    (b'{"mode": "velocity",\n "seed": "\xff"}', "line 2, byte 31"),
    # Lines are counted at "\n" only, as JSON errors count them.
    (b'{"mode": "velocity",\r "name": "a\xe2\x80\xa8b",\n "seed": "\xff"}', "line 2, byte 49"),
])
def test_non_utf8_config_is_io_error(tmp_path, capsys, doc, where):
    p = tmp_path / "bad.json"
    p.write_bytes(doc)
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", str(p), "--output", out]) == EXIT_IO
    assert f"invalid UTF-8 byte 0xff (at {where})" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("token, message", [
    ("1_0.5", "invalid velocity '1_0.5' (at row 3)"),
    ("\u0661\u0662", "invalid velocity '\u0661\u0662' (at row 3)"),
])
def test_python_only_number_in_csv_is_io_error(tmp_path, capsys, token, message):
    real = tmp_path / "real.csv"
    real.write_text(f"t_ms,velocity_deg_s,label\n1.0,2.0,FIX\n2.0,{token},FIX\n", "utf-8")
    cfg = write_config(tmp_path, mode="evaluate", paths={"real_data": str(real)})
    out = str(tmp_path / "summary.csv")
    assert run(["evaluate", "--config", cfg, "--output", out]) == EXIT_IO
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("data, message", [
    (b"P2\n2 1\n255\n0 1_0\n", "invalid pixel value b'1_0' (at byte 13)"),
    (b"P2\n2 1\n2_55\n0 1\n", "invalid maxval b'2_55' (at byte 7)"),
    # int() strips a vertical tab or a form feed; a PGM number has neither.
    (b"P2\n2 1\n255\n0 2\x0b\n", "invalid pixel value b'2\\x0b' (at byte 13)"),
    (b"P5 1 1 255\x0c\n\x07", "invalid maxval b'255\\x0c' (at byte 7)"),
])
def test_python_only_number_in_pgm_is_io_error(tmp_path, capsys, data, message):
    stim = tmp_path / "stim.pgm"
    stim.write_bytes(data)
    cfg = write_config(tmp_path, mode="saliency", paths={"stimulus": str(stim)})
    out = str(tmp_path / "map.pgm")
    assert run(["saliency", "--config", cfg, "--output", out]) == EXIT_IO
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_full_pipeline_deterministic(tmp_path):
    stim = write_stimulus(tmp_path)
    results = []
    for tag in ("1", "2"):
        vel = str(tmp_path / f"v{tag}.csv")
        gaze = str(tmp_path / f"g{tag}.csv")
        summ = str(tmp_path / f"s{tag}.csv")
        gen = write_config(tmp_path, name=f"gen{tag}.json", seed=123)
        run(["generate", "--config", gen, "--output", vel])
        mp = write_config(
            tmp_path, name=f"map{tag}.json", mode="map_static", seed=123,
            paths={"stimulus": stim, "velocity_input": vel},
        )
        run(["map", "--config", mp, "--output", gaze])
        ev = write_config(
            tmp_path, name=f"ev{tag}.json", mode="evaluate", seed=123,
            paths={"real_data": vel},
        )
        run(["evaluate", "--config", ev, "--output", summ])
        results.append(
            tuple(open(p, "rb").read() for p in (vel, gaze, summ))
        )
    assert results[0] == results[1]


LONG_DIGITS = "1" * 5000  # past Python's default int-to-string limit of 4,300


@pytest.mark.parametrize("before", [
    "",
    # The same digits in a string or as a float's part are read and are not
    # the integer named.
    f' "paths": {{"output": "{LONG_DIGITS}"}},\n',
    f' "base_rate_hz": {LONG_DIGITS}.5e-4990,\n "mapping": {{"frame_rate": 1{LONG_DIGITS}e-4990}},\n',
])
def test_over_long_integer_in_config_is_io_error(tmp_path, capsys, before):
    # Used to crash with a ValueError traceback (exit 1).
    p = tmp_path / "long.json"
    p.write_text('{"mode": "velocity",\n%s "noise": {},\n "seed": -%s}' % (before, LONG_DIGITS))
    line = 3 + before.count("\n")
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", str(p), "--output", out]) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: integer of more than 4300 digits (at line {line})\n"
    )
    assert not os.path.exists(out)


def test_over_long_integer_in_set_is_config_error(tmp_path, capsys):
    # Used to crash with a ValueError traceback (exit 1); the value that is
    # not a readable number is text, which the key rejects.
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o.csv")
    code = run(["generate", "--config", cfg, "--output", out,
                "--set", f"seed={LONG_DIGITS}"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: seed: expected int, got str\n"
    assert not os.path.exists(out)


def test_over_long_integer_in_seed_flag_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o.csv")
    with pytest.raises(SystemExit) as e:
        run(["generate", "--config", cfg, "--output", out, "--seed", LONG_DIGITS])
    assert e.value.code == EXIT_CONFIG
    assert "argument --seed: invalid int value" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_over_long_integer_in_env_seed_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAZEFORGE_SEED", LONG_DIGITS)
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", cfg, "--output", out]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: seed: GAZEFORGE_SEED must be an integer\n"
    assert not os.path.exists(out)


def test_nested_config_is_io_error(tmp_path, capsys):
    # Used to crash with a RecursionError traceback (exit 1).
    p = tmp_path / "deep.json"
    p.write_text('{"mode": "velocity",\n "seed": %s}' % ("[" * 5000 + "]" * 5000))
    out = str(tmp_path / "o.csv")
    assert run(["generate", "--config", str(p), "--output", out]) == EXIT_IO
    assert capsys.readouterr().err == "error: nested 5001 levels deep (at line 2)\n"
    assert not os.path.exists(out)


def test_nested_set_value_is_config_error(tmp_path, capsys):
    # Used to crash with a RecursionError traceback (exit 1); the value is
    # read as text, which the key rejects.
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o.csv")
    code = run(["generate", "--config", cfg, "--output", out, "--set", "seed=" + "[" * 5000])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: seed: expected int, got str\n"
    assert not os.path.exists(out)


# --- the subcommand, not mode, decides the paths a run needs -----------------

@pytest.mark.parametrize("case", [
    "generate_normal_burst", "map_static", "map_dynamic", "remap_new_stimulus",
    "saliency_targets", "evaluate_errors",
])
def test_every_mode_gives_the_same_bytes(tmp_path, case):
    # mode used to require paths and pick map's scene kind; now it is
    # accepted and read by nothing.
    argv, doc = _case(case, tmp_path)
    for mode in MODES:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(doc, mode=mode)))
        out = tmp_path / ("out.pgm" if argv[0] == "saliency" else "out.csv")
        assert run(argv + ["--config", str(cfg), "--output", str(out)]) == EXIT_OK, mode
        got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[case]}
        assert got == GOLDEN[case], mode


@pytest.mark.parametrize("case, key", [
    ("generate_normal_burst", "output"),
    ("map_static", "stimulus"),
    ("map_dynamic", "frames_dir"),
    ("map_static", "output"),
    ("remap_same_stimulus", "real_data"),
    ("remap_new_stimulus", "stimulus"),
    ("remap_same_stimulus", "output"),
    ("saliency_targets", "stimulus"),
    ("saliency_targets", "output"),
    ("evaluate_errors", "real_data"),
    ("evaluate_errors", "output"),
])
@pytest.mark.parametrize("mode", ["velocity", None])
def test_missing_required_path_is_config_error(tmp_path, capsys, case, key, mode):
    # Under mode "velocity", remap, saliency and evaluate used to crash with
    # a TypeError (exit 1) on a missing input path. None keeps the case's mode.
    argv, doc = _case(case, tmp_path)
    doc["mode"] = mode or doc["mode"]
    doc.get("paths", {}).pop(key, None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = argv + ["--config", str(cfg)]
    if key != "output":
        argv += ["--output", str(tmp_path / "o.out")]
    assert run(argv) == EXIT_CONFIG
    assert f"paths.{key}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o.out")


@pytest.mark.parametrize("case, key, value", [
    ("map_static", "saliency_map", "."),  # a folder for a static scene
    ("map_dynamic", "saliency_map", "stim.pgm"),  # a file beside frames_dir
    ("remap_new_stimulus", "saliency_map", "."),
    ("evaluate_errors", "stimulus", "missing.pgm"),  # set, not read, not there
    ("map_dynamic", "velocity_input", "missing.csv"),
    ("evaluate_errors", "real_data", "."),  # a folder for a file
    ("saliency_targets", "stimulus", "."),
    ("map_dynamic", "frames_dir", "stim.pgm"),  # a file for a folder
])
def test_wrong_kind_or_missing_input_is_config_error(tmp_path, capsys, case, key, value):
    # The first four used to run: the map of the wrong kind was ignored, and
    # only the inputs of the mode were checked. The last three used to exit 3
    # with a bare errno message once the stage opened the path.
    argv, doc = _case(case, tmp_path)
    doc["paths"][key] = str(tmp_path / value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.out"
    assert run(argv + ["--config", str(cfg), "--output", str(out)]) == EXIT_CONFIG
    assert f"paths.{key}: " in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("case, key, value, message", [
    ("evaluate_errors", "errors_output", "missing/errors.csv", "its folder does not exist"),
    ("saliency_targets", "targets_output", "missing/targets.csv", "its folder does not exist"),
    ("saliency_targets", "targets_output", ".", "must be a file, not a folder"),
    ("map_static", "output", ".", "must be a file, not a folder"),
])
def test_output_path_without_folder_is_config_error(tmp_path, capsys, case, key, value, message):
    # evaluate used to write summary.csv, then exit 3 naming its temp file in
    # the missing folder.
    argv, doc = _case(case, tmp_path)
    doc["paths"][key] = str(tmp_path / value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.out"
    argv += ["--config", str(cfg)] + (["--output", str(out)] if key != "output" else [])
    before = sorted(os.listdir(tmp_path))
    assert run(argv) == EXIT_CONFIG
    assert f"paths.{key}: {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_output_not_written_is_not_checked(tmp_path):
    # generate writes no pooled errors, so their folder is not its concern.
    cfg = write_config(tmp_path, paths={"errors_output": str(tmp_path / "no" / "e.csv")})
    assert run(["generate", "--config", cfg, "--output", str(tmp_path / "v.csv")]) == EXIT_OK


def test_failed_saliency_writes_no_output(tmp_path, capsys):
    # A flat stimulus has no targets. The map used to be written before that
    # failure (exit 4).
    stim = tmp_path / "flat.pgm"
    stim.write_bytes(FLAT_PGM)
    targets = tmp_path / "targets.csv"
    cfg = write_config(tmp_path, paths={"stimulus": str(stim), "targets_output": str(targets)})
    out = tmp_path / "out.pgm"
    assert run(["saliency", "--config", cfg, "--output", str(out)]) == EXIT_NUMERIC
    assert "no fixation targets" in capsys.readouterr().err
    assert not out.exists() and not targets.exists()


def test_long_default_rate_generate(tmp_path, capsys):
    # With no sampling section the rate is the base rate, 1000 Hz. A clock
    # summing 1/rate left a window empty at sample 334,587 and exited 4.
    cfg = write_config(tmp_path, seed=3, sequence={"counts": {"fixation": 1200, "saccade": 200}})
    out = tmp_path / "v.csv"
    assert run(["generate", "--config", cfg, "--output", str(out)]) == EXIT_OK
    assert "372690 samples" in capsys.readouterr().out
    t = read_velocity_csv(str(out)).timestamps
    assert np.array_equal(t, np.arange(1, 372_691) / 1000.0)  # k ms, as written


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_outputs_get_the_mode_open_gives(tmp_path, umask):
    # Written through mkstemp, every output was 0600, and a replaced 0644
    # output became 0600.
    argv, doc = _case("saliency_targets", tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out, targets = tmp_path / "out.pgm", tmp_path / "targets.csv"
    out.write_bytes(b"old")
    os.chmod(out, 0o644)
    old = os.umask(umask)
    try:
        assert run(argv + ["--config", str(cfg), "--output", str(out)]) == EXIT_OK
    finally:
        os.umask(old)
    for path in (out, targets):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask, path
