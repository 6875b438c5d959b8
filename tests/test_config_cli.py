"""Config parsing (typed errors with field paths) and the CLI surface.

CLI tests call main(argv) in-process and assert on exit codes and parsed
JSON output; one subprocess test covers the python -m entry point.
"""

import contextlib
import copy
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcodelay as pc
import pcodelay.cli
from pcodelay.cli import main
from pcodelay.config import ConfigError, load_config, parse_config

from conftest import base_config


def parse(cfg: dict):
    return parse_config(json.dumps(cfg))


class TestParseConfig:
    def test_valid_config_and_defaults(self):
        cfg = parse(base_config())
        assert cfg.params.coupling.n == 100
        assert cfg.params.coupling.epsilon == 0.001
        assert cfg.params.coupling.tau == 0.1
        assert cfg.params.curve.i == 1.05
        assert cfg.params.tol_time == 1e-9
        assert cfg.params.tol_phase == 1e-12
        assert cfg.cluster_tol == 1e-6
        assert cfg.seed == 7
        assert cfg.horizon == 100.0
        assert cfg.strobe is None
        assert cfg.trials == 1
        assert cfg.output is None
        assert cfg.returnmap is None

    def test_tolerances_overridable(self):
        cfg = parse(
            base_config(
                tolerances={"tol_time": 1e-10, "tol_phase": 1e-13, "cluster_tol": 1e-5}
            )
        )
        assert cfg.params.tol_time == 1e-10
        assert cfg.params.tol_phase == 1e-13
        assert cfg.cluster_tol == 1e-5

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="tau"):
            parse(base_config(tau=None))

    def test_nested_type_error_names_path(self):
        with pytest.raises(ConfigError, match=r"curve\.i"):
            parse(base_config(curve={"family": "ms_exponential", "i": "big"}))

    def test_explicit_phase_out_of_range_names_index(self):
        cfg = base_config(
            n=4, init={"mode": "explicit", "phases": [0.2, 0.4, 1.5, 0.8]}
        )
        with pytest.raises(ConfigError, match=r"init\.phases\[2\]"):
            parse(cfg)

    def test_explicit_phase_count_must_match_n(self):
        cfg = base_config(n=4, init={"mode": "explicit", "phases": [0.2, 0.4]})
        with pytest.raises(ConfigError, match="phases"):
            parse(cfg)

    def test_strobe_ref_range(self):
        cfg = base_config(horizon=None, strobe={"ref": 100, "frames": 10})
        with pytest.raises(ConfigError, match=r"strobe\.ref"):
            parse(cfg)

    def test_horizon_and_strobe_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse(base_config(strobe={"ref": 0, "frames": 10}))
        with pytest.raises(ConfigError, match="exactly one"):
            parse(base_config(horizon=None))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field: frobnicate"):
            parse(base_config(frobnicate=1))

    def test_unknown_nested_field_rejected(self):
        cfg = base_config(init={"mode": "uniform", "low": 0.0, "high": 1.0, "spin": 2})
        with pytest.raises(ConfigError, match=r"init\.spin"):
            parse(cfg)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter reads integers of any length",
    )
    def test_integer_past_the_digit_limit_is_a_config_error(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(ConfigError, match="not valid JSON: Exceeds the limit"):
            parse_config('{"n": ' + "1" * digits + "}")

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2]")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse(base_config(seed=-1))

    def test_explicit_init_incompatible_with_trials(self):
        cfg = base_config(
            n=2, init={"mode": "explicit", "phases": [0.3, 0.7]}, trials=5
        )
        with pytest.raises(ConfigError, match="trials"):
            parse(cfg)

    def test_uniform_bounds_checked(self):
        with pytest.raises(ConfigError, match=r"init\.low"):
            parse(base_config(init={"mode": "uniform", "low": -0.1, "high": 1.0}))
        with pytest.raises(ConfigError, match=r"init\.high"):
            parse(base_config(init={"mode": "uniform", "low": 0.0, "high": 1.2}))
        with pytest.raises(ConfigError, match=r"init\.low"):
            parse(base_config(init={"mode": "uniform", "low": 0.8, "high": 0.2}))

    def test_returnmap_sizes_must_sum_to_n(self):
        cfg = base_config(
            n=10, returnmap={"theta": 0.3, "p": 5, "q": 6, "steps": 10}
        )
        with pytest.raises(ConfigError, match=r"returnmap\.q"):
            parse(cfg)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))


class TestInitialPhases:
    def test_uniform_deterministic_and_in_range(self):
        cfg = parse(base_config(n=50, seed=41))
        a = cfg.initial_phases()
        b = cfg.initial_phases()
        assert np.array_equal(a, b)
        assert a.shape == (50,)
        assert np.all(a > 0.0) and np.all(a <= 1.0)

    def test_trials_reseed(self):
        cfg = parse(base_config(n=50, seed=41, trials=3))
        a = cfg.initial_phases(trial=0)
        b = cfg.initial_phases(trial=1)
        assert not np.array_equal(a, b)
        direct = parse(base_config(n=50, seed=42)).initial_phases(trial=0)
        assert np.array_equal(b, direct)

    def test_explicit_passthrough(self):
        cfg = parse(base_config(n=3, init={"mode": "explicit", "phases": [0.1, 0.5, 1.0]}))
        assert cfg.initial_phases().tolist() == [0.1, 0.5, 1.0]

    def test_subinterval_sampling(self):
        cfg = parse(base_config(n=200, seed=9, init={"mode": "uniform", "low": 0.0, "high": 0.01}))
        ph = cfg.initial_phases()
        assert np.all(ph > 0.0) and np.all(ph <= 0.01)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One JSON integer past the float range (or, for n, past the largest array
# length) in each number field; the error must name the field.
OVERSIZED = [
    ("n", {"n": 10**400}),
    ("epsilon", {"epsilon": 10**400}),
    ("tau", {"tau": 10**400}),
    ("horizon", {"horizon": 10**400}),
    ("curve.i", {"curve": {"family": "ms_exponential", "i": 10**400}}),
    ("init.phases[99]",
     {"init": {"mode": "explicit", "phases": [0.5] * 99 + [10**400]}}),
    ("init.high", {"init": {"mode": "uniform", "high": -(10**400)}}),
    ("tolerances.cluster_tol", {"tolerances": {"cluster_tol": 10**400}}),
    ("returnmap.theta",
     {"returnmap": {"theta": 10**400, "p": 50, "q": 50, "steps": 1}}),
]


# One invalid value per rejection branch of parse_config, and the field the
# error must start with.
REJECTED = [
    ("tau", {"tau": 0.0}),
    ("curve: ", {"curve": {"family": "ms_exponential", "i": 1.0}}),
    ("tolerances: tol_time", {"tolerances": {"tol_time": 0.01}}),
    ("tolerances.cluster_tol", {"tolerances": {"cluster_tol": 0.0}}),
    ("init.phases[1]", {"n": 2, "init": {"mode": "explicit", "phases": [0.5, "x"]}}),
    ("init.mode", {"init": {"mode": "gaussian"}}),
    ("horizon", {"horizon": 0.0}),
    ("strobe.frames", {"horizon": None, "strobe": {"ref": 0, "frames": 0}}),
    ("output.format", {"output": {"format": "png"}}),
    ("output.path", {"output": {"format": "csv", "path": ""}}),
    ("returnmap.theta", {"returnmap": {"theta": 1.0, "p": 50, "q": 50, "steps": 1}}),
    ("returnmap.p", {"returnmap": {"theta": 0.1, "p": 0, "q": 100, "steps": 1}}),
    ("returnmap.steps", {"returnmap": {"theta": 0.1, "p": 50, "q": 50, "steps": 0}}),
    ("returnmap.oracle_every",
     {"returnmap": {"theta": 0.1, "p": 50, "q": 50, "steps": 1, "oracle_every": -1}}),
]


MAX_N = int(np.iinfo(np.intp).max)  # the largest numpy array length

# The full text of each message above, by field: those tables check only
# where it starts.
OVERSIZED_TEXT = {
    "n": f"n: must be <= {MAX_N}",
    "epsilon": "epsilon: must be finite",
    "tau": "tau: must be finite",
    "horizon": "horizon: must be finite",
    "curve.i": "curve.i: must be finite",
    "init.phases[99]": "init.phases[99]: must lie in (0, 1]",
    "init.high": "init.high: must be finite",
    "tolerances.cluster_tol": "tolerances.cluster_tol: must be finite",
    "returnmap.theta": "returnmap.theta: must be finite",
}
REJECTED_TEXT = {
    "tau": "tau must be > 0, got 0.0",
    "curve: ": "curve: curve parameter i must be > 1, got 1.0",
    "tolerances: tol_time":
        "tolerances: tol_time must lie in (0, tau/100) = (0, 0.001), got 0.01",
    "tolerances.cluster_tol": "tolerances.cluster_tol: must be > 0",
    "init.phases[1]": "init.phases[1]: expected number",
    "init.mode": "init.mode: expected 'uniform' or 'explicit', got 'gaussian'",
    "horizon": "horizon: must be > 0",
    "strobe.frames": "strobe.frames: must be >= 1",
    "output.format": "output.format: expected 'csv' or 'svg', got 'png'",
    "output.path": "output.path: must be non-empty",
    "returnmap.theta": "returnmap.theta: must lie in [0, 1)",
    "returnmap.p": "returnmap.p: clique sizes must be >= 1",
    "returnmap.steps": "returnmap.steps: must be >= 1",
    "returnmap.oracle_every": "returnmap.oracle_every: must be >= 0",
}

_EXPLICIT = {"mode": "explicit", "phases": [0.5, 1.0]}
_RETURNMAP = {"theta": 0.1, "p": 50, "q": 50, "steps": 1}


def _returnmap(**fields):
    """A returnmap section; a field set to ... is left out."""
    merged = {**_RETURNMAP, **fields}
    return {"returnmap": {k: v for k, v in merged.items() if v is not ...}}


# base_config overrides that make exactly one error, and the whole message
# it gives.  Each required field missing, each field of the wrong kind, an
# unknown key in each section, non-finite numbers and every range check.
ONE_ERROR = [
    ("missing-n", {"n": None}, "missing required field: n"),
    ("missing-epsilon", {"epsilon": None}, "missing required field: epsilon"),
    ("missing-tau", {"tau": None}, "missing required field: tau"),
    ("missing-curve", {"curve": None}, "missing required field: curve"),
    ("missing-seed", {"seed": None}, "missing required field: seed"),
    ("missing-init", {"init": None}, "missing required field: init"),
    ("missing-horizon", {"horizon": None},
     "exactly one of 'horizon' or 'strobe' is required"),
    ("missing-curve.family", {"curve": {"i": 1.05}}, "missing required field: curve.family"),
    ("missing-curve.i", {"curve": {"family": "ms_exponential"}},
     "missing required field: curve.i"),
    ("missing-init.mode", {"init": {}}, "missing required field: init.mode"),
    ("missing-init.phases", {"init": {"mode": "explicit"}},
     "missing required field: init.phases"),
    ("missing-strobe.ref", {"horizon": None, "strobe": {"frames": 1}},
     "missing required field: strobe.ref"),
    ("missing-strobe.frames", {"horizon": None, "strobe": {"ref": 0}},
     "missing required field: strobe.frames"),
    ("missing-output.format", {"output": {}}, "missing required field: output.format"),
    ("missing-returnmap.theta", _returnmap(theta=...), "missing required field: returnmap.theta"),
    ("missing-returnmap.p", _returnmap(p=...), "missing required field: returnmap.p"),
    ("missing-returnmap.q", _returnmap(q=...), "missing required field: returnmap.q"),
    ("missing-returnmap.steps", _returnmap(steps=...), "missing required field: returnmap.steps"),
    ("kind-n-str", {"n": "100"}, "n: expected integer, got str"),
    ("kind-n-float", {"n": 100.0}, "n: expected integer, got float"),
    ("kind-n-bool", {"n": True}, "n: expected integer, got bool"),
    ("kind-epsilon", {"epsilon": "0.001"}, "epsilon: expected number, got str"),
    ("kind-epsilon-bool", {"epsilon": False}, "epsilon: expected number, got bool"),
    ("kind-tau", {"tau": [0.1]}, "tau: expected number, got list"),
    ("kind-curve", {"curve": "ms_exponential"}, "curve: expected object, got str"),
    ("kind-curve.family", {"curve": {"family": 1, "i": 1.05}},
     "curve.family: expected string, got int"),
    ("kind-curve.i", {"curve": {"family": "ms_exponential", "i": "1.05"}},
     "curve.i: expected number, got str"),
    ("kind-seed", {"seed": 7.0}, "seed: expected integer, got float"),
    ("kind-init", {"init": ["uniform"]}, "init: expected object, got list"),
    ("kind-init.mode", {"init": {"mode": 1}}, "init.mode: expected string, got int"),
    ("kind-init.low", {"init": {"mode": "uniform", "low": "0"}},
     "init.low: expected number, got str"),
    ("kind-init.high", {"init": {"mode": "uniform", "high": None}},
     "init.high: expected number, got NoneType"),
    ("kind-init.phases", {"n": 2, "init": {"mode": "explicit", "phases": {"0": 0.5}}},
     "init.phases: expected array, got dict"),
    ("kind-init.phases[0]", {"n": 2, "init": {"mode": "explicit", "phases": [True, 0.5]}},
     "init.phases[0]: expected number"),
    ("kind-horizon", {"horizon": "100"}, "horizon: expected number, got str"),
    ("kind-strobe", {"horizon": None, "strobe": 1}, "strobe: expected object, got int"),
    ("kind-strobe.ref", {"horizon": None, "strobe": {"ref": 0.0, "frames": 1}},
     "strobe.ref: expected integer, got float"),
    ("kind-strobe.frames", {"horizon": None, "strobe": {"ref": 0, "frames": "1"}},
     "strobe.frames: expected integer, got str"),
    ("kind-tolerances", {"tolerances": [1e-9]}, "tolerances: expected object, got list"),
    ("kind-tolerances.tol_time", {"tolerances": {"tol_time": "1e-9"}},
     "tolerances.tol_time: expected number, got str"),
    ("kind-tolerances.tol_phase", {"tolerances": {"tol_phase": None}},
     "tolerances.tol_phase: expected number, got NoneType"),
    ("kind-tolerances.cluster_tol", {"tolerances": {"cluster_tol": True}},
     "tolerances.cluster_tol: expected number, got bool"),
    ("kind-output", {"output": "csv"}, "output: expected object, got str"),
    ("kind-output.format", {"output": {"format": 1}}, "output.format: expected string, got int"),
    ("kind-output.path", {"output": {"format": "csv", "path": 1}},
     "output.path: expected string, got int"),
    ("kind-strict", {"strict": 1}, "strict: expected boolean, got int"),
    ("kind-trials", {"trials": 1.5}, "trials: expected integer, got float"),
    ("kind-returnmap", {"returnmap": [_RETURNMAP]}, "returnmap: expected object, got list"),
    ("kind-returnmap.theta", _returnmap(theta="0.1"),
     "returnmap.theta: expected number, got str"),
    ("kind-returnmap.p", _returnmap(p=50.0), "returnmap.p: expected integer, got float"),
    ("kind-returnmap.q", _returnmap(q="50"), "returnmap.q: expected integer, got str"),
    ("kind-returnmap.steps", _returnmap(steps=None),
     "returnmap.steps: expected integer, got NoneType"),
    ("kind-returnmap.oracle_every", _returnmap(oracle_every=False),
     "returnmap.oracle_every: expected integer, got bool"),
    ("unknown-top", {"sead": 7}, "unknown field: sead"),
    ("unknown-curve", {"curve": {"family": "ms_exponential", "i": 1.05, "a": 1}},
     "unknown field: curve.a"),
    ("unknown-tolerances", {"tolerances": {"tol": 1e-9}}, "unknown field: tolerances.tol"),
    ("unknown-init-uniform", {"init": {"mode": "uniform", "phases": [0.5]}},
     "unknown field: init.phases"),
    ("unknown-init-explicit", {"n": 2, "init": {**_EXPLICIT, "low": 0.0}},
     "unknown field: init.low"),
    ("unknown-strobe", {"horizon": None, "strobe": {"ref": 0, "frames": 1, "k": 1}},
     "unknown field: strobe.k"),
    ("unknown-output", {"output": {"format": "csv", "file": "x.csv"}},
     "unknown field: output.file"),
    ("unknown-returnmap", _returnmap(oracle=1), "unknown field: returnmap.oracle"),
    ("nan-epsilon", {"epsilon": math.nan}, "epsilon: must be finite"),
    ("inf-tau", {"tau": math.inf}, "tau: must be finite"),
    ("inf-curve.i", {"curve": {"family": "ms_exponential", "i": -math.inf}},
     "curve.i: must be finite"),
    ("nan-init.low", {"init": {"mode": "uniform", "low": math.nan}}, "init.low: must be finite"),
    ("nan-init.phases[1]", {"n": 2, "init": {"mode": "explicit", "phases": [0.5, math.nan]}},
     "init.phases[1]: must lie in (0, 1]"),
    ("inf-horizon", {"horizon": math.inf}, "horizon: must be finite"),
    ("inf-tolerances.tol_time", {"tolerances": {"tol_time": math.inf}},
     "tolerances.tol_time: must be finite"),
    ("nan-tolerances.tol_phase", {"tolerances": {"tol_phase": math.nan}},
     "tolerances.tol_phase: must be finite"),
    ("nan-tolerances.cluster_tol", {"tolerances": {"cluster_tol": math.nan}},
     "tolerances.cluster_tol: must be finite"),
    ("nan-returnmap.theta", _returnmap(theta=math.nan), "returnmap.theta: must be finite"),
    ("range-n-small", {"n": 1}, "n must be >= 2, got 1"),
    ("range-n-large", {"n": MAX_N + 1}, f"n: must be <= {MAX_N}"),
    ("range-epsilon", {"epsilon": -0.001}, "epsilon must be >= 0, got -0.001"),
    ("range-curve.family", {"curve": {"family": "linear", "i": 1.05}},
     "curve: unknown curve family 'linear'; known: ['ms_exponential']"),
    ("range-curve.i", {"curve": {"family": "ms_exponential", "i": 0.5}},
     "curve: curve parameter i must be > 1, got 0.5"),
    ("range-tolerances.tol_phase", {"tolerances": {"tol_phase": 1e-3}},
     "tolerances: tol_phase must lie in [0, 1e-3), got 0.001"),
    ("range-seed", {"seed": -1}, "seed: must be >= 0"),
    ("range-init.low", {"init": {"mode": "uniform", "low": -0.5}}, "init.low: must be >= 0"),
    ("range-init.high", {"init": {"mode": "uniform", "high": 1.5}}, "init.high: must be <= 1"),
    ("range-init.low-high", {"init": {"mode": "uniform", "low": 0.5, "high": 0.5}},
     "init.low: must be < init.high"),
    ("range-init.phases-count", {"n": 3, "init": _EXPLICIT},
     "init.phases: expected 3 entries, got 2"),
    ("range-init.phases[0]", {"n": 2, "init": {"mode": "explicit", "phases": [0.0, 0.5]}},
     "init.phases[0]: must lie in (0, 1]"),
    ("range-horizon", {"horizon": -1.0}, "horizon: must be > 0"),
    ("range-horizon-and-strobe", {"strobe": {"ref": 0, "frames": 1}},
     "exactly one of 'horizon' or 'strobe' is required"),
    ("range-strobe.ref-low", {"horizon": None, "strobe": {"ref": -1, "frames": 1}},
     "strobe.ref: must lie in [0, 100)"),
    ("range-strobe.ref-high", {"horizon": None, "strobe": {"ref": 100, "frames": 1}},
     "strobe.ref: must lie in [0, 100)"),
    ("range-trials", {"trials": 0}, "trials: must be >= 1"),
    ("range-trials-explicit", {"n": 2, "init": _EXPLICIT, "trials": 2},
     "trials: explicit init cannot vary across trials; use uniform"),
    ("range-returnmap.theta", _returnmap(theta=-0.1), "returnmap.theta: must lie in [0, 1)"),
    ("range-returnmap.q", _returnmap(p=100, q=0), "returnmap.q: clique sizes must be >= 1"),
    ("range-returnmap.p+q", _returnmap(q=49), "returnmap.q: p + q must equal n = 100"),
    *[(f"oversized-{field}", overrides, OVERSIZED_TEXT[field]) for field, overrides in OVERSIZED],
    *[(f"rejected-{field}", overrides, REJECTED_TEXT[field]) for field, overrides in REJECTED],
]

# Every section's keys, the top level under "".
SCHEMA_KEYS = {
    "": ("n", "epsilon", "tau", "curve", "seed", "init", "horizon", "strobe",
         "tolerances", "output", "strict", "trials", "returnmap"),
    "curve": ("family", "i"),
    "init": ("mode", "low", "high", "phases"),
    "strobe": ("ref", "frames"),
    "tolerances": ("tol_time", "tol_phase", "cluster_tol"),
    "output": ("format", "path"),
    "returnmap": ("theta", "p", "q", "steps", "oracle_every"),
}

# Valid configs that together hold every section and both init modes.
VALID_CONFIGS = [
    base_config(),
    base_config(
        n=2, init=_EXPLICIT, horizon=None, strobe={"ref": 1, "frames": 3},
        output={"format": "svg", "path": "out.svg"}, strict=True,
    ),
    base_config(
        n=4, returnmap={"theta": 0.2, "p": 1, "q": 3, "steps": 5, "oracle_every": 2},
        tolerances={"tol_time": 1e-10, "tol_phase": 0.0, "cluster_tol": 1e-3}, trials=3,
    ),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.integers(-2, 101)
    | st.floats() | st.text("az.", max_size=3)
    | st.sampled_from(["uniform", "explicit", "ms_exponential", "csv", "svg"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS[""]), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def fuzzed_configs(draw):
    """A valid config with one to three fields deleted or set to any JSON value."""
    cfg = copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(SCHEMA_KEYS)))
        target = cfg.setdefault(section, {}) if section else cfg
        if isinstance(target, dict):
            key = draw(st.sampled_from(SCHEMA_KEYS[section]))
            if draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = draw(JSON_VALUES)
    return cfg


class TestConfigMessages:
    @pytest.mark.parametrize(
        "overrides, message",
        [case[1:] for case in ONE_ERROR],
        ids=[case[0] for case in ONE_ERROR],
    )
    def test_one_error_gives_its_whole_message(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            parse(base_config(**overrides))
        assert str(info.value) == message

    def test_valid_configs_parse(self):
        for cfg in VALID_CONFIGS:
            assert isinstance(parse(cfg), pc.RunConfig)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(fuzzed_configs())
    def test_any_config_parses_or_raises_config_error(self, cfg):
        # Never another exception, whatever the values.
        try:
            assert isinstance(parse(cfg), pc.RunConfig)
        except ConfigError:
            pass


class TestValidateCommand:
    def test_reports_saturation_values(self, write_config, capsys):
        path = write_config(base_config())
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 100
        assert payload["a2_holds"] is True
        assert payload["a2_value"] == pytest.approx(0.57885623496667757, rel=1e-12)
        assert payload["margin"] == pytest.approx(1.0 - payload["a2_value"], rel=1e-12)

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
        assert code == 1
        assert "config error" in err

    def test_invalid_config_exits_1(self, write_config, capsys):
        path = write_config(base_config(tau=None))
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 1

    def test_strict_gate_exits_2(self, write_config, capsys):
        path = write_config(base_config(epsilon=0.02, tau=0.3))
        code, out, err = run_cli(capsys, "validate", path, "--strict")
        assert code == 2
        assert "strict" in err

    @pytest.mark.parametrize(
        "field, overrides", OVERSIZED, ids=[field for field, _ in OVERSIZED]
    )
    def test_oversized_integer_exits_1_naming_field(
        self, write_config, capsys, field, overrides
    ):
        # JSON integers are unbounded; one past the float range is a config
        # error, not an OverflowError traceback.
        path = write_config(base_config(**overrides))
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 1
        assert err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize(
        "field, overrides", REJECTED, ids=[field for field, _ in REJECTED]
    )
    def test_rejected_value_exits_1_naming_field(
        self, write_config, capsys, field, overrides
    ):
        path = write_config(base_config(**overrides))
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 1
        assert err.startswith(f"config error: {field}")

    def test_saturation_warning_without_strict(self, write_config, capsys):
        path = write_config(base_config(epsilon=0.02, tau=0.3))
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 0
        assert "warning" in err.lower()
        assert json.loads(out)["a2_holds"] is False

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x.json"])
        assert exc.value.code == 1


class TestSimulateCommand:
    def test_single_run_summary(self, write_config, capsys):
        path = write_config(base_config(n=10, seed=3, horizon=10.0))
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["sync_ever"] is False
        assert payload["frames_emitted"] == 0
        assert payload["cluster_count_final"] >= 2
        assert payload["final_spread"] > 0.0
        assert payload["min_interfire_gap"] > 0.2
        assert payload["a2_value"] < 1.0

    def test_trials_flag_runs_sweep(self, write_config, capsys):
        path = write_config(base_config(n=10, seed=3, horizon=10.0))
        code, out, err = run_cli(capsys, "simulate", path, "--trials", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 3
        assert payload["sync_detected_count"] == 0
        assert payload["min_final_spread"] > 0.0
        assert sum(payload["cluster_count_histogram"].values()) == 3

    def test_equal_phases_report_synchronization(self, write_config, capsys):
        # Equal phases and an empty queue are complete synchronization at
        # t = 0, and the network stays synchronized through every volley.
        path = write_config(
            base_config(n=3, horizon=5.0,
                        init={"mode": "explicit", "phases": [1.0, 1.0, 1.0]})
        )
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["sync_ever"] is True
        assert payload["final_spread"] == 0.0
        assert payload["cluster_count_final"] == 1

        # Trials need uniform draws; a band narrower than tol_phase gives
        # every trial equal phases within tolerance at t = 0.
        bunched = write_config(
            base_config(n=3, horizon=5.0,
                        init={"mode": "uniform", "low": 1.0 - 5e-13, "high": 1.0})
        )
        code, out, err = run_cli(capsys, "simulate", bunched, "--trials", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["sync_detected_count"] == 2
        assert payload["cluster_count_histogram"] == {"1": 2}

    def test_sync_gated_runs_step_once_per_event(self, write_config, capsys, monkeypatch):
        # The benchmark counts events through a hook on NetworkState.step, so
        # the sync-gated loop behind simulate and desync_trial must step
        # through it as often as a plain run(horizon) yields reports.
        path = write_config(base_config())
        run = load_config(path)
        events = [
            sum(1 for _ in pc.NetworkState(run.params, run.initial_phases(k)).run(run.horizon))
            for k in range(2)
        ]
        stepped = []
        step = pc.NetworkState.step

        def hooked(self):
            stepped.append(self)
            return step(self)

        monkeypatch.setattr(pc.NetworkState, "step", hooked)
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 0 and json.loads(out)["sync_ever"] is False
        assert len(stepped) == events[0] > 1000

        stepped.clear()
        summary = pc.desync_trial(run.params, run.initial_phases, run.horizon, trials=2)
        assert summary.sync_detected_count == 0
        assert len(stepped) == sum(events)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_trials_flag_below_one_exits_1(self, write_config, capsys, value):
        path = write_config(base_config(n=10, seed=3, horizon=10.0))
        code, out, err = run_cli(capsys, "simulate", path, "--trials", value)
        assert code == 1
        assert "trials: must be >= 1" in err
        assert out == ""

    def test_trials_flag_rejects_explicit_init(self, write_config, capsys):
        path = write_config(
            base_config(n=2, horizon=5.0,
                        init={"mode": "explicit", "phases": [0.3, 0.7]})
        )
        code, out, err = run_cli(capsys, "simulate", path, "--trials", "3")
        assert code == 1
        assert "trials: explicit init cannot vary across trials" in err
        assert out == ""

    def test_requires_horizon(self, write_config, capsys):
        path = write_config(
            base_config(n=10, horizon=None, strobe={"ref": 0, "frames": 5})
        )
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 1
        assert "horizon" in err


class TestStrobeCommand:
    def strobe_cfg(self, **overrides):
        return base_config(
            n=10, seed=5, horizon=None, strobe={"ref": 0, "frames": 12}, **overrides
        )

    def test_csv_to_file_and_summary_to_stdout(self, write_config, tmp_path, capsys):
        out_path = tmp_path / "frames.csv"
        path = write_config(self.strobe_cfg())
        code, out, err = run_cli(capsys, "strobe", path, "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        header = "k,t_k," + ",".join(f"phi_{i}" for i in range(10))
        assert lines[0] == header
        assert len(lines) == 13  # header + one row per frame
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == 1.0  # reference pinned at threshold
        summary = json.loads(out)
        assert summary["frames_emitted"] == 12
        assert summary["sync_ever"] is False
        assert summary["min_frame_spread"] > 0.0

    def test_csv_to_stdout_summary_to_stderr(self, write_config, capsys):
        path = write_config(self.strobe_cfg())
        code, out, err = run_cli(capsys, "strobe", path)
        assert code == 0
        assert out.splitlines()[0].startswith("k,t_k,phi_0")
        summary = json.loads(err)
        assert summary["frames_emitted"] == 12

    def test_reruns_byte_identical(self, write_config, tmp_path, capsys):
        path = write_config(self.strobe_cfg())
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(capsys, "strobe", path, "--output", str(out_a))[0] == 0
        assert run_cli(capsys, "strobe", path, "--output", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_svg_output(self, write_config, tmp_path, capsys):
        out_path = tmp_path / "frames.svg"
        cfg = self.strobe_cfg(output={"format": "svg", "path": str(out_path)})
        path = write_config(cfg)
        code, out, err = run_cli(capsys, "strobe", path)
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "<circle" in text

    def test_svg_inferred_from_output_extension(self, write_config, tmp_path, capsys):
        out_path = tmp_path / "frames.svg"
        path = write_config(self.strobe_cfg())  # no output section in config
        code, out, err = run_cli(capsys, "strobe", path, "--output", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("<svg")

    def test_requires_strobe_section(self, write_config, capsys):
        path = write_config(base_config(n=10, horizon=5.0))
        code, out, err = run_cli(capsys, "strobe", path)
        assert code == 1

    @pytest.mark.parametrize(
        "n,seed,frames",
        [(20, 3, 80), (30, 7, 120), (10, 5, 12)],  # counts moving, settled, < window
    )
    def test_partitions_only_reported_frames(
        self, write_config, capsys, monkeypatch, n, seed, frames
    ):
        cfg = base_config(n=n, seed=seed, horizon=None,
                          strobe={"ref": 0, "frames": frames})
        path = write_config(cfg)

        # Reference: partition after every frame, as the summary defines.
        run = load_config(path)
        net = pc.NetworkState(run.params, run.initial_phases(0))
        counts = []
        sync_ever = pc.is_completely_synchronized(net).synchronized
        for _ in pc.stroboscopic_run(net, 0, frames):
            counts.append(pc.cluster_partition(net, tol_phase=run.cluster_tol).n_clusters)
            sync_ever = sync_ever or pc.is_completely_synchronized(net).synchronized

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return pc.cluster_partition(*args, **kwargs)

        monkeypatch.setattr(pcodelay.cli, "cluster_partition", counting)
        code, out, err = run_cli(capsys, "strobe", path)
        assert code == 0
        summary = json.loads(err)
        window = min(50, frames)
        assert len(calls) == window
        assert summary["cluster_count_final"] == counts[-1]
        assert summary["cluster_count_stable"] == pc.stable_cluster_count(
            counts, window=window
        )
        assert summary["sync_ever"] == sync_ever


    # SHA-256 of `pcodelay strobe` stdout (the CSV) and stderr (the
    # summary), recomputed for the grouped engine's arithmetic.  Both runs
    # partition and check synchrony with pulses in flight.
    @pytest.mark.parametrize(
        "overrides,out_digest,err_digest",
        [
            (dict(), "99942fc1ba7c4d4309d681aef79a42a0922ba13a7bc3afb73ca237b4dde496d2",
             "e3a9d43bd4a7a98ac2d75d0a7ca43c49d3f9d8c4ad1ba65851c041db25642b3a"),
            (dict(init={"mode": "uniform", "low": 0.0, "high": 0.01}),
             "6ecb9b1e38f2fda9b4952e5eaf400d12df78a18c6fd39501bdcbbb0b02d1bcd8",
             "89b7566a61262fcc5771f73936de6f431e2d3bbd657434ccec06e8becd5ac13a"),
        ],
        ids=["uniform", "bunched"],
    )
    def test_strobe_cli_output_digest(
        self, write_config, capsys, overrides, out_digest, err_digest
    ):
        cfg = base_config(horizon=None, strobe={"ref": 0, "frames": 200}, **overrides)
        code, out, err = run_cli(capsys, "strobe", write_config(cfg))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(err.encode()).hexdigest() == err_digest

    def test_strobe_svg_output_digest(self, write_config, tmp_path, capsys):
        # SHA-256 of the SVG, computed while cmd_strobe kept every frame and
        # built the SVG as one string, and of its summary on stdout,
        # recomputed for the grouped engine.  The summary is the CSV run's
        # ("uniform" above).
        out_path = tmp_path / "frames.svg"
        cfg = base_config(horizon=None, strobe={"ref": 0, "frames": 200})
        code, out, err = run_cli(
            capsys, "strobe", write_config(cfg), "--output", str(out_path)
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "3355a05280e2549d57e5240501d31202b0d663cc79723241b555548a2b089fb3"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e3a9d43bd4a7a98ac2d75d0a7ca43c49d3f9d8c4ad1ba65851c041db25642b3a"
        )


class TestAuditCommand:
    def test_clean_run_exits_0(self, write_config, capsys):
        path = write_config(base_config(n=10, seed=3, horizon=10.0))
        code, out, err = run_cli(capsys, "audit", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["gap_bound_ok"] is True
        assert payload["pending_ok"] is True
        assert payload["max_pending_per_source"] == 1
        assert payload["min_interfire_gap"] > 0.2
        assert payload["events"] > 0
        assert payload["violations"] == []

    def test_saturated_regime_fails_gap_bound_exits_4(self, write_config, capsys):
        path = write_config(base_config(epsilon=0.02, tau=0.3, seed=11, horizon=3.0))
        code, out, err = run_cli(capsys, "audit", path)
        assert code == 4
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["gap_bound_ok"] is False
        assert payload["min_interfire_gap"] < 0.6

    def test_strobe_mode_audit(self, write_config, capsys):
        path = write_config(
            base_config(n=10, seed=5, horizon=None, strobe={"ref": 0, "frames": 10})
        )
        code, out, err = run_cli(capsys, "audit", path)
        assert code == 0
        assert json.loads(out)["ok"] is True

    # SHA-256 of `pcodelay audit` stdout, recomputed for the grouped
    # engine's event times.  The last config breaks the saturation check, so
    # its digest covers the violation list and exit code 4.
    @pytest.mark.parametrize(
        "overrides,code,digest",
        [
            (dict(n=1000, epsilon=1e-4, horizon=100.0), 0,
             "0be31f9e4ad9d7383268dde9af88c4f4c08b4d66d7505320659cf016301c87c7"),
            (dict(n=10, seed=5, horizon=None, strobe={"ref": 0, "frames": 50}), 0,
             "2614c62d45cc74df67c53084f39e0b154d2f91b06f2975e82d9791c9a80be7ea"),
            (dict(n=1000, horizon=100.0), 4,
             "cff39e9024313b814c8a6e14dede2a94f07630ebeef1c9788c16c13b5ad06e4d"),
        ],
        ids=["horizon", "strobe", "violations"],
    )
    def test_audit_cli_output_digest(self, write_config, capsys, overrides, code, digest):
        path = write_config(base_config(**overrides))
        got, out, err = run_cli(capsys, "audit", path)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestReturnmapCommand:
    def rm_cfg(self, **rm_overrides):
        rm = {"theta": 0.3, "p": 5, "q": 5, "steps": 10, "oracle_every": 5}
        rm.update(rm_overrides)
        return base_config(n=10, returnmap=rm)

    def test_csv_shape_and_oracle_sampling(self, write_config, tmp_path, capsys):
        out_path = tmp_path / "orbit.csv"
        path = write_config(self.rm_cfg())
        code, out, err = run_cli(capsys, "returnmap", path, "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "step,theta,p,q,oracle_delta"
        assert len(lines) == 12  # header + steps 0..10
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == [str(k) for k in range(11)]
        assert all(r[2] == "5" and r[3] == "5" for r in rows)
        for r in rows:
            if int(r[0]) in (5, 10):
                assert r[4] != ""
                assert float(r[4]) <= 1e-9
            else:
                assert r[4] == ""
        summary = json.loads(out)
        assert summary["steps"] == 10
        assert summary["theta_initial"] == 0.3
        assert summary["min_theta"] > 0.0
        assert summary["oracle_max_delta"] <= 1e-9

    def test_zero_gap_orbit_constant(self, write_config, capsys):
        path = write_config(self.rm_cfg(theta=0.0, oracle_every=0))
        code, out, err = run_cli(capsys, "returnmap", path)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(float(r[1]) == 0.0 for r in rows)
        assert all(r[4] == "" for r in rows)

    def test_negative_zero_gap_reads_as_zero(self, write_config, capsys):
        cfg = self.rm_cfg(theta=-0.0, steps=3, oracle_every=0)
        assert parse_config(json.dumps(cfg)).returnmap.theta.hex() == "0x0.0p+0"
        code, out, err = run_cli(capsys, "returnmap", write_config(cfg))
        assert code == 0
        assert out.splitlines()[1] == "0,0,5,5,"
        assert '"theta_initial": 0.0' in err and '"min_theta": 0.0' in err

    def test_merged_start_skips_the_oracle(self, write_config, capsys):
        # theta == 0 is the merged fixed point, where the engine cycle is
        # degenerate: the oracle is never asked, so no step has a delta.
        path = write_config(self.rm_cfg(theta=0.0, oracle_every=2))
        code, out, err = run_cli(capsys, "returnmap", path)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 11
        assert all(r[4] == "" for r in rows)
        assert json.loads(err)["oracle_max_delta"] is None

    def test_output_needs_only_write(self, write_config, capsys):
        # sys.stdout may be any object with write(); writelines and the
        # rest of io.TextIOBase are not guaranteed.
        class Sink:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)
                return len(text)

            def flush(self):
                pass

        path = write_config(self.rm_cfg())
        code, out, err = run_cli(capsys, "returnmap", path)
        assert code == 0
        sink_out, sink_err = Sink(), Sink()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            assert main(["returnmap", path]) == 0
        assert "".join(sink_out.parts) == out
        assert "".join(sink_err.parts) == err

    def test_requires_returnmap_section(self, write_config, capsys):
        path = write_config(base_config(n=10))
        code, out, err = run_cli(capsys, "returnmap", path)
        assert code == 1

    def test_bad_sizes_exit_1(self, write_config, capsys):
        path = write_config(self.rm_cfg(p=4))
        code, out, err = run_cli(capsys, "returnmap", path)
        assert code == 1

    def test_svg_format_exits_1_and_writes_nothing(self, write_config, tmp_path, capsys):
        out_path = tmp_path / "orbit.svg"
        cfg = self.rm_cfg()
        cfg["output"] = {"format": "svg", "path": str(out_path)}
        code, out, err = run_cli(capsys, "returnmap", write_config(cfg))
        assert code == 1
        assert "output.format" in err
        assert out == ""
        assert not out_path.exists()


class TestCounterexampleCommand:
    def test_two_oscillator_construction(self, write_config, capsys):
        path = write_config(base_config(n=2, horizon=5.0))
        code, out, err = run_cli(capsys, "counterexample", path)
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["phi"] < 0.1
        assert payload["window"] == [0.1, pytest.approx(0.1 + payload["phi"])]
        assert payload["equal_mid_window"] is True
        assert payload["pipeline_mismatch_mid_window"] is True
        assert payload["synchronized_mid_window"] is False
        assert payload["diverged_after_window"] is True
        assert payload["spread_after_window"] > payload["spread_mid_window"]

    def test_counterexample_cli_output_digest(self, write_config, capsys):
        # SHA-256 of the stdout, recomputed for the grouped engine (its
        # equal phases mid-window now read a spread of exactly 0.0); the
        # synchrony checks in the window run with a pulse in flight.
        path = write_config(base_config(n=2, horizon=5.0))
        code, out, err = run_cli(capsys, "counterexample", path)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b4e93159083c569bb15aa9d4f3925c06d02e7764a734742d9d802bbb0045b18b"
        )

    def test_requires_two_oscillators(self, write_config, capsys):
        path = write_config(base_config(n=100))
        code, out, err = run_cli(capsys, "counterexample", path)
        assert code == 1
        assert "infeasible" in err


class TestRuntimeFailures:
    def test_unwritable_output_exits_3(self, write_config, tmp_path, capsys):
        path = write_config(base_config(n=10, horizon=None, strobe={"ref": 0, "frames": 3}))
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "strobe", path, "--output", str(target))
        assert code == 3
        assert "i/o error" in err
        assert not target.parent.exists()

    def test_engine_failure_exits_3(self, write_config, capsys, monkeypatch):
        class Failing(pc.NetworkState):
            def step(self):
                raise RuntimeError("injected failure")

        monkeypatch.setattr(pcodelay.cli, "NetworkState", Failing)
        path = write_config(base_config(n=10, seed=3, horizon=10.0))
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 3
        assert "runtime error: injected failure" in err
        assert out == ""


def strict_json(text: str):
    """json.loads that rejects the Infinity and NaN JSON does not have."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestNonFiniteSummaries:
    # n * epsilon overflows: the saturation value is inf, its margin -inf.
    OVERFLOW = dict(n=10, epsilon=1e308)

    def test_validate_prints_null(self, write_config, capsys):
        path = write_config(base_config(**self.OVERFLOW))
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 0
        payload = strict_json(out)
        assert payload["a2_value"] is None
        assert payload["margin"] is None
        assert payload["a2_holds"] is False
        assert "warning" in err

    def test_trials_summary_prints_null(self, write_config, capsys):
        path = write_config(base_config(**self.OVERFLOW, horizon=2.0))
        code, out, err = run_cli(capsys, "simulate", path, "--trials", "2")
        assert code == 0
        assert strict_json(out)["a2_value"] is None

    def test_strobe_summary_prints_null(self, write_config, tmp_path, capsys):
        path = write_config(
            base_config(**self.OVERFLOW, horizon=None, strobe={"ref": 0, "frames": 3})
        )
        code, out, err = run_cli(capsys, "strobe", path, "--output", str(tmp_path / "s.csv"))
        assert code == 0
        assert strict_json(out)["a2_value"] is None

    def test_simulate_summary_is_finite(self, write_config, capsys):
        # The whole network fires together, and the volley's summed increment
        # (n - 1) * epsilon must not turn the phases into NaN.
        path = write_config(base_config(**self.OVERFLOW, horizon=2.0))
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 0, err
        assert strict_json(out)["final_spread"] == 0.0

    def test_non_finite_value_exits_3_and_prints_nothing(
        self, write_config, capsys, monkeypatch
    ):
        monkeypatch.setattr(pcodelay.cli, "phase_spread", lambda net: math.nan)
        path = write_config(base_config(n=10, horizon=2.0))
        code, out, err = run_cli(capsys, "simulate", path)
        assert code == 3
        assert "runtime error" in err
        assert out == ""


def test_module_entry_point(write_config, src_on_pythonpath):
    path = write_config(base_config())
    out = subprocess.run(
        [sys.executable, "-m", "pcodelay", "validate", path],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["a2_holds"] is True


class TestRepeatedCalls:
    """main() builds its parser once per process, so no call may leave an
    option or an error behind for the next one."""

    def test_parser_is_built_once(self):
        assert pcodelay.cli.build_parser() is pcodelay.cli.build_parser()

    def test_options_do_not_carry_over(self, write_config, tmp_path, capsys):
        path = write_config(base_config(n=10, seed=3, horizon=10.0, trials=2))
        plain = run_cli(capsys, "simulate", path)
        assert plain[0] == 0 and json.loads(plain[1])["trials"] == 2
        code, out, err = run_cli(capsys, "simulate", path, "--trials", "3")
        assert code == 0 and json.loads(out)["trials"] == 3
        assert run_cli(capsys, "simulate", path) == plain

        strobe = write_config(base_config(n=10, horizon=None, strobe={"ref": 0, "frames": 3}))
        target = tmp_path / "frames.csv"
        code, out, err = run_cli(capsys, "strobe", strobe, "--output", str(target))
        assert code == 0 and target.exists()
        code, out, err = run_cli(capsys, "strobe", strobe)
        assert code == 0 and out == target.read_text()

    def test_usage_error_leaves_the_next_call_working(self, write_config, capsys):
        path = write_config(base_config(n=10, seed=3, horizon=10.0))
        plain = run_cli(capsys, "simulate", path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", path, "--trials", "three"])
        assert exc.value.code == 1
        assert "invalid int value" in capsys.readouterr().err
        assert run_cli(capsys, "simulate", path) == plain
