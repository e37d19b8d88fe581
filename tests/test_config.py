"""Strict JSON configuration parsing and validation."""
from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gazeforge.config import COMMANDS, SCHEMA, RunConfig, check_paths, load_config, read_config
from gazeforge.errors import ParseError, ValidationError
from gazeforge.params import DistKind, MovementLabel


def cfg_text(**over):
    doc = {"mode": "velocity", "seed": 42}
    doc.update(over)
    return json.dumps(doc)


def test_minimal_config_gets_defaults():
    cfg = read_config(cfg_text())
    assert cfg.mode == "velocity" and cfg.seed == 42
    assert cfg.base_rate_hz == 1000.0
    assert cfg.fixation.duration.min == 0.2
    assert cfg.mapping.params.pixels_per_degree == 30.0
    assert cfg.rate.rate.min == cfg.rate.rate.max == 1000.0


def test_full_velocity_config_parsed():
    cfg = read_config(cfg_text(
        base_rate_hz=500,
        sequence={
            "counts": {"fixation": 3, "saccade": 2},
            "constraints": [
                {"kind": "after_each", "first": "saccade", "second": "fixation"}
            ],
        },
        saccade={"peak_velocity": {"kind": "normal", "min": 250, "max": 450, "std": 40}},
        sampling={"rate": {"min": 50, "max": 70}},
        noise={"fraction": 0.05, "location_dist": "normal"},
    ))
    assert cfg.base_rate_hz == 500.0
    assert cfg.sequence.counts[MovementLabel.FIXATION] == 3
    assert cfg.saccade.peak_velocity.kind == DistKind.NORMAL
    assert cfg.noise.location_dist == DistKind.NORMAL
    assert cfg.rate.rate.max == 70.0


def test_invalid_json_is_parse_error_with_position():
    with pytest.raises(ParseError) as e:
        read_config("{\n  \"mode\": velocity\n}")
    assert "line 2" in str(e.value)


def test_unknown_top_level_key_suggests():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(saccede={}))
    assert "saccede" in str(e.value) and "saccade" in str(e.value)


def test_unknown_nested_key_suggests():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(fixation={"consistensy": {"min": 0, "max": 1}}))
    msg = str(e.value)
    assert "consistensy" in msg and "consistency" in msg


def test_min_above_max_names_dotted_path():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(fixation={"duration": {"min": 0.5, "max": 0.2}}))
    assert "fixation.duration" in str(e.value)


def test_unknown_mode_suggests():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(mode="velocty"))
    assert "velocity" in str(e.value)


def test_wrong_type_reports_path():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(seed="abc"))
    assert "seed" in str(e.value)


def test_unknown_dist_kind_suggests():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(saccade={"duration": {"kind": "nromal", "min": 0, "max": 1}}))
    assert "normal" in str(e.value)


def test_rate_above_base_rate_rejected():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(base_rate_hz=100, sampling={"rate": {"min": 50, "max": 200}}))
    assert "sampling.rate" in str(e.value)


@pytest.mark.parametrize("onset_min", [0.1, 0.2, 0.3, 0.5])
def test_pursuit_onset_not_below_duration_rejected(onset_min):
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(pursuit={
            "duration": {"min": 0.1, "max": 0.3},
            "onset_duration": {"min": onset_min, "max": 0.6},
        }))
    assert e.value.field == "pursuit.onset_duration.min"


@pytest.mark.parametrize("doc, field", [
    ({"base_rate_hz": math.nan}, "base_rate_hz"),
    ({"base_rate_hz": math.inf}, "base_rate_hz"),
    ({"fixation": {"base_velocity": math.nan}}, "fixation.base_velocity"),
    ({"saccade": {"peak_velocity": {"kind": "normal", "min": 300, "max": 500,
                                    "std": math.inf}}},
     "saccade.peak_velocity.std"),
    ({"noise": {"fraction": math.nan}}, "noise.fraction"),
    ({"mapping": {"pixels_per_degree": math.inf}}, "mapping.pixels_per_degree"),
    ({"mapping": {"max_path_deviation": math.inf}}, "mapping.max_path_deviation"),
    ({"mapping": {"fixation_dispersion": math.nan}}, "mapping.fixation_dispersion"),
    ({"mapping": {"target_jitter_px": math.nan}}, "mapping.target_jitter_px"),
    ({"mapping": {"min_target_distance": math.inf}}, "mapping.min_target_distance"),
    ({"mapping": {"target_threshold": -math.inf}}, "mapping.target_threshold"),
    ({"mapping": {"frame_rate": math.nan}}, "mapping.frame_rate"),
    ({"mapping": {"frame_rate": math.inf}}, "mapping.frame_rate"),
])
def test_non_finite_number_rejected_at_its_field(doc, field):
    # json.loads accepts the NaN and Infinity tokens that json.dumps writes.
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(**doc))
    assert e.value.field == field
    assert "must be finite" in str(e.value)


@pytest.mark.parametrize("doc, field", [
    ({"mapping": {"frame_rate": 0}}, "mapping.frame_rate"),
    ({"mapping": {"frame_rate": -5}}, "mapping.frame_rate"),
    ({"mapping": {"min_target_distance": -1}}, "mapping.min_target_distance"),
    ({"mapping": {"min_target_distance": -1e-300}}, "mapping.min_target_distance"),
    ({"mapping": {"target_threshold": 1.5}}, "mapping.target_threshold"),
])
def test_out_of_range_mapping_number_rejected(doc, field):
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(**doc))
    assert e.value.field == field


def test_smallest_mapping_numbers_accepted():
    cfg = read_config(cfg_text(mapping={"frame_rate": 1e-9, "min_target_distance": 0}))
    assert cfg.mapping.frame_rate == 1e-9
    assert cfg.mapping.min_target_distance == 0.0
    # A saliency map's maximum is exactly 1, so a threshold of 1 can be met.
    assert read_config(cfg_text(mapping={"target_threshold": 1.0})).mapping.target_threshold == 1.0


def test_pursuit_onset_below_duration_max_accepted():
    cfg = read_config(cfg_text(pursuit={
        "duration": {"min": 0.1, "max": 0.3},
        "onset_duration": {"min": 0.0999, "max": 0.6},
    }))
    assert cfg.pursuit.onset_duration.min == 0.0999


@pytest.mark.parametrize("section", ["fixation", "saccade", "pursuit"])
def test_duration_past_the_sample_limit_rejected(section):
    # At 1000 Hz, 1.15e15 s is 1.15e18 samples, just under the 2**60 - 1 that
    # a float64 array can index; 1.16e15 s is past it.
    lo = SCHEMA[section]["duration"][1].min  # the default's
    cfg = read_config(cfg_text(**{section: {"duration": {"min": lo, "max": 1.15e15}}}))
    assert getattr(cfg, section).duration.max == 1.15e15
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(**{section: {"duration": {"min": lo, "max": 1.16e15}}}))
    assert e.value.field == f"{section}.duration.max"


def test_saccade_skewness_max_two_accepted():
    cfg = read_config(cfg_text(saccade={"skewness": {"min": 1.5, "max": 2.0}}))
    assert cfg.saccade.skewness.max == 2.0


@pytest.mark.parametrize("skew_max", [2.000001, 3.0])
def test_saccade_skewness_above_two_rejected(skew_max):
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(saccade={"skewness": {"min": 1.5, "max": skew_max}}))
    assert e.value.field == "saccade.skewness.max"


def test_saccade_skewness_min_at_shape_limit_accepted():
    cfg = read_config(cfg_text(saccade={"skewness": {"min": 2e-4, "max": 1.0}}))
    assert cfg.saccade.skewness.min == 2e-4


@pytest.mark.parametrize("skew_min", [math.nextafter(2e-4, 0.0), 1e-9])
def test_saccade_skewness_below_shape_limit_rejected(skew_min):
    # (2/skew)^2 above 1e8: the Gamma profile is not computed for such shapes.
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(saccade={"skewness": {"min": skew_min, "max": 1.0}}))
    assert e.value.field == "saccade.skewness.min"


@pytest.mark.parametrize("dur_min", [0.05, 0.0376])  # 2.0 and 1.504 samples
def test_saccade_two_samples_accepted(dur_min):
    cfg = read_config(cfg_text(
        base_rate_hz=40, saccade={"duration": {"min": dur_min, "max": 0.08}}
    ))
    assert cfg.saccade.duration.min == dur_min


@pytest.mark.parametrize("dur_min", [0.0374, 0.03])  # 1.496 and 1.2 samples
def test_saccade_under_two_samples_rejected(dur_min):
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(
            base_rate_hz=40, saccade={"duration": {"min": dur_min, "max": 0.08}}
        ))
    assert e.value.field == "saccade.duration.min"


@pytest.mark.parametrize("section", ["fixation", "pursuit"])
@pytest.mark.parametrize("dur_min, accepted", [
    (0.0004, False),
    (0.0005, False),  # 0.5 samples, which round() takes to 0
    (math.nextafter(0.0005, 1.0), True),
    (0.001, True),
])
def test_duration_min_under_one_sample_rejected(section, dur_min, accepted):
    doc = {section: {"duration": {"min": dur_min, "max": 0.05}}}
    if section == "pursuit":
        doc[section]["onset_duration"] = {"min": 0.0001, "max": 0.0002}
    if accepted:
        assert getattr(read_config(cfg_text(**doc)), section).duration.min == dur_min
        return
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(**doc))
    assert e.value.field == f"{section}.duration.min"
    assert str(e.value) == (
        f"{section}.duration.min: {dur_min:.6g} s gives zero samples at base_rate_hz 1000"
    )


def test_bad_constraint_kind():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(sequence={
            "counts": {"fixation": 1},
            "constraints": [{"kind": "near", "first": "fixation", "second": "saccade"}],
        }))
    assert "constraints[0]" in str(e.value)


def test_same_type_constraint_rejected():
    with pytest.raises(ValidationError):
        read_config(cfg_text(sequence={
            "counts": {"fixation": 2},
            "constraints": [
                {"kind": "before", "first": "fixation", "second": "fixation"}
            ],
        }))


def test_explicit_sequence_parsed():
    cfg = read_config(cfg_text(sequence={"explicit": ["fixation", "saccade", "fixation"]}))
    assert cfg.sequence.explicit == [
        MovementLabel.FIXATION, MovementLabel.SACCADE, MovementLabel.FIXATION
    ]


def test_bad_noise_mode_rejected():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(noise={"mode": "overwrite"}))
    assert "noise.mode" in str(e.value)


def test_bad_remap_mode_rejected():
    with pytest.raises(ValidationError) as e:
        read_config(cfg_text(mapping={"remap_mode": "different"}))
    assert "mapping.remap_mode" in str(e.value)


def test_check_paths_missing_required():
    # The subcommand names the paths it needs, whatever the mode.
    with pytest.raises(ValidationError) as e:
        load_config(cfg_text(mode="saliency").encode(), "saliency", output="o.pgm")
    assert "paths.stimulus" in str(e.value)


def test_check_paths_nonexistent_file(tmp_path):
    cfg = read_config(cfg_text(
        mode="evaluate", paths={"real_data": str(tmp_path / "nope.csv")}
    ))
    with pytest.raises(ValidationError) as e:
        check_paths(cfg)
    assert "not found" in str(e.value)


def test_check_paths_ok_when_file_exists(tmp_path):
    p = tmp_path / "real.csv"
    p.write_text("t_ms,velocity_deg_s,label\n1.0,2.0,FIX\n")
    cfg = read_config(cfg_text(mode="evaluate", paths={"real_data": str(p)}))
    check_paths(cfg)  # no error


def test_non_object_document_rejected():
    with pytest.raises(ValidationError):
        read_config("[1, 2, 3]")


# --- load_config on documents built from the schema ---------------------------

LONG_DIGITS = "9" * 5000  # past Python's default int-to-string limit of 4,300
LONG = "__long_integer__"  # stands for LONG_DIGITS in a generated document
LABELS = ["fixation", "saccade", "smooth_pursuit"]

# Values a key of each reader can hold, boundaries included.
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 2e-4, 0.01, 0.03, 0.1, 0.5, 1.0, 2.0, 1000.0, 1e308]),
    st.floats(0.0, 2000.0),
    st.integers(0, 100),
)
_ints = st.integers(-1, 12)
_rule = st.fixed_dictionaries({
    "kind": st.sampled_from(["after_each", "before"]),
    "first": st.sampled_from(LABELS),
    "second": st.sampled_from(LABELS),
})


def _dist():
    def build(a, b, kind, std):
        lo, hi = sorted([a, b])
        return {"kind": kind, "min": lo, "max": hi, "std": std}

    return st.one_of(
        st.builds(build, _floats, _floats, st.sampled_from(["uniform", "normal"]), _floats),
        _floats.map(lambda v: {"min": v, "max": v}),
    )


def _value(reader):
    if isinstance(reader, dict):
        return st.sampled_from(list(reader))
    if reader is float:
        return _floats
    if reader is int:
        return _ints
    if reader is str:  # paths: missing files, and a folder and a file that exist
        return st.sampled_from(["out.csv", "missing.pgm", "src", "pyproject.toml"])
    if reader is dict:  # sequence.counts
        return st.dictionaries(st.sampled_from(LABELS), st.integers(0, 4), min_size=1, max_size=3)
    if reader is list:  # sequence.constraints and sequence.explicit
        return st.lists(_rule, max_size=2) | st.lists(
            st.sampled_from(LABELS), min_size=1, max_size=4
        )
    return _dist()


def _section(name):
    return st.fixed_dictionaries(
        {}, optional={key: _value(reader) for key, (reader, _) in SCHEMA[name].items()}
    )


# Values no key holds: wrong types, non-finite and over-long numbers, unknown
# names, inverted or negative bounds.
_bad = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.just([]), st.just({}),
    st.lists(st.integers(-1, 2), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, -1e-9, 1e308, 10**400, LONG]),
    st.sampled_from(["bogus", "nromal", {"min": 2, "max": 1}, {"min": -5, "max": -1},
                     {"min": 0, "max": 1, "kind": "normal", "std": -1},
                     {"min": 0, "max": 1, "spread": 2}, [{"kind": "after", "first": "x"}]]),
)
_KEYS = [(section, key) for section in SCHEMA for key in SCHEMA[section]]


def _few(items):
    """Lists of 0 (most often), 1 or 2 of ``items``."""
    return st.sampled_from([0, 0, 0, 1, 2]).flatmap(
        lambda n: st.lists(items, min_size=n, max_size=n)
    )


def _with_faults(doc, faults):
    """``doc`` with each (section, key, value) of ``faults`` written in; a
    key of None replaces the whole section."""
    for section, key, value in faults:
        value = copy.deepcopy(value)  # a value drawn twice is one object
        if key is None:
            doc[section] = value
        elif not section:
            doc[key] = value
        elif isinstance(doc.get(section), dict):
            doc[section][key] = value
        else:
            doc[section] = {key: value}
    return doc


_document = st.builds(
    _with_faults,
    st.builds(
        lambda root, sections: {**root, **sections},
        _section(""),
        st.fixed_dictionaries({}, optional={name: _section(name) for name in SCHEMA if name}),
    ),
    _few(st.one_of(
        st.tuples(st.sampled_from([s for s in SCHEMA if s]), st.none(), _bad),
        st.sampled_from(_KEYS + [("", "unknwn"), ("noise", "fractoin")]).flatmap(
            lambda sk: st.tuples(st.just(sk[0]), st.just(sk[1]), _bad)
        ),
    )),
)
_override_item = st.builds(
    "{}={}".format,
    st.sampled_from([f"{s}.{k}" if s else k for s, k in _KEYS]
                    + ["fixation", "paths.output.x", "a.b.c", " seed ", ""]),
    st.sampled_from(["1", "0.5", "null", "NaN", "-Infinity", "[]", "{}", '"normal"',
                     "abc", "1_0", '{"min": 1, "max": 1}', LONG_DIGITS]),
)
# Mostly KEY.PATH=VALUE items, sometimes any text.
_override = st.integers(0, 9).flatmap(lambda i: st.text(max_size=6) if i == 0 else _override_item)


def _bytes(doc, mangle):
    data = json.dumps(doc).replace(f'"{LONG}"', LONG_DIGITS).encode()
    if mangle == "truncate":
        return data[: len(data) // 2]
    if mangle == "bad byte":
        return data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :]
    return data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    doc=st.integers(0, 9).flatmap(lambda i: st.sampled_from([[], 5, "x"]) if i == 0 else _document),
    mangle=st.sampled_from(["none"] * 8 + ["truncate", "bad byte"]),
    sets=_few(_override),
    seed=st.none() | st.integers(-(2**70), 2**70),
    env_seed=st.sampled_from([None] * 6 + ["5", " 7 ", "x", "", "1_0", LONG_DIGITS]),
    output=st.sampled_from([None, "out.csv", "out.csv"]),
    command=st.sampled_from(sorted(COMMANDS)),
)
# The saccade sample count overflowed: OverflowError (exit 1) instead of a load.
@example(doc={"base_rate_hz": 1e308, "saccade": {"duration": {"min": 1e308, "max": 1e308}}},
         mangle="none", sets=[], seed=None, env_seed=None, output="out.csv",
         command="generate")
def test_load_config_fails_only_with_located_errors(
    doc, mangle, sets, seed, env_seed, output, command
):
    # Every load gives a RunConfig, or a ValidationError naming its field
    # (only a malformed --set item has none to name), or a ParseError naming
    # its position: never another exception.
    try:
        cfg = load_config(
            _bytes(doc, mangle), command, sets=sets, seed=seed, env_seed=env_seed, output=output
        )
    except ValidationError as e:
        assert e.field or str(e).startswith("override "), str(e)
    except ParseError as e:
        assert e.position, str(e)
    else:
        assert isinstance(cfg, RunConfig)
