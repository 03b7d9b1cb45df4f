import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pipestab.certificate import compute_constants
from pipestab.config import (MAX_SNAPSHOT_CELLS, MAX_SNAPSHOTS, MAX_STEPS, SCHEMA, ConfigError,
                             ScenarioConfig)

ROOT = Path(__file__).resolve().parents[1]


class TestParsing:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg["pipe.L"] == 1.0
        assert cfg["disturbance.family"] == "zero"
        assert cfg["solver.nx"] == 200

    def test_round_trip(self):
        cfg = ScenarioConfig({"pipe.a": 2.0, "feedback.k": 4.0,
                              "stationary.u0": 0.1 + 0.2,   # non-terminating decimal
                              "disturbance.family": "decaying_burst"})
        text = cfg.to_text()
        again = ScenarioConfig.from_text(text)
        assert again.values == cfg.values
        assert again.to_text() == text

    def test_readme_example_parses(self):
        (block,) = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
        cfg = ScenarioConfig.from_text(block)
        assert cfg["pipe.L"] == 1.0
        assert cfg["disturbance.family"] == "decaying_burst"
        assert cfg["certificate.lambda"] == 0.6

    def test_trailing_hash_is_part_of_the_value(self):
        with pytest.raises(ConfigError, match="not a valid float"):
            ScenarioConfig.from_text("pipe.L = 1.0   # pipe length\n")

    def test_comments_and_blank_lines(self):
        cfg = ScenarioConfig.from_text("# a comment\n\npipe.a = 3.0\n")
        assert cfg["pipe.a"] == 3.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key `pipe.bogus`"):
            ScenarioConfig.from_text("pipe.bogus = 1\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="not a valid float"):
            ScenarioConfig.from_text("pipe.a = fast\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            ScenarioConfig.from_text("pipe.a 3.0\n")

    def test_repeated_key(self):
        # no line silently wins over an earlier one, as no --set does
        with pytest.raises(ConfigError, match=r"^line 4: `pipe.a` is given again, after line 2;"):
            ScenarioConfig.from_text("pipe.L = 1.0\npipe.a = 2.0\n# again\n pipe.a=3.0\n")

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        cfg = ScenarioConfig({"pipe.theta": 0.1})
        p.write_text(cfg.to_text())
        assert ScenarioConfig.from_file(p).values == cfg.values


class TestValidation:
    @pytest.mark.parametrize("key,value", [
        ("pipe.L", -1.0), ("pipe.a", 0.0), ("pipe.theta", -0.1),
        ("feedback.k", 0.0), ("stationary.u0", 2.0), ("disturbance.family", "x"),
        ("disturbance.gamma", -1.0), ("disturbance.nu", 0.0),
        ("disturbance.C_nu", -1.0), ("disturbance.T_period", 0.0),
        ("initial.family", "spike"), ("initial.width", 0.0),
        ("solver.nx", 8), ("solver.cfl", 1.5), ("solver.snapshot_dt", 0.0),
        ("certificate.lambda", 0.5), ("disturbance.seed", -1),
        # every float must be finite: NaN passes every comparison-based rule
        ("disturbance.A", math.nan), ("disturbance.C_nu", math.inf),
        ("solver.t_end", math.inf), ("initial.center", -math.inf),
        ("pipe.L", math.nan), ("disturbance.f", math.nan),
    ])
    def test_constraint_violation_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            ScenarioConfig({key: value})

    def test_t_end_must_exceed_window(self):
        with pytest.raises(ConfigError, match=r"solver\.t_end"):
            ScenarioConfig({"solver.t_end": 0.5, "disturbance.T_period": 1.0})
        # for a compact burst the window also sets t_off = t_end - T_period
        for t_end in (0.5, 1.0):
            with pytest.raises(ConfigError, match=r"`solver\.t_end`: constraint"):
                ScenarioConfig({"disturbance.family": "compact_burst", "solver.t_end": t_end,
                                "disturbance.T_period": 1.0})

    def test_snapshot_count_bounded(self):
        # every snapshot ends a step, so a tiny cadence would force ~t_end / snapshot_dt steps
        ScenarioConfig({"solver.t_end": 2.0, "solver.snapshot_dt": 2e-4})
        with pytest.raises(ConfigError, match=r"invalid value for `solver\.snapshot_dt`"):
            ScenarioConfig({"solver.t_end": 2.0, "solver.snapshot_dt": 1e-7})
        with pytest.raises(ConfigError, match=r"solver\.snapshot_dt"):
            ScenarioConfig({"solver.t_end": 2.0, "solver.snapshot_dt": 5e-324})

    def test_step_count_bounded(self):
        # steps <= t_end * 3a * nx / (cfl * L) + snapshots + 1, each keeping its records
        at_cap = (MAX_STEPS - MAX_SNAPSHOTS - 1) * 0.45 / (3 * 2.0 * 400)
        base = {"pipe.a": 2.0, "solver.nx": 400, "solver.cfl": 0.45, "solver.snapshot_dt": 10.0}
        ScenarioConfig({**base, "solver.t_end": 0.999 * at_cap})
        with pytest.raises(ConfigError, match=r"invalid value for `solver\.t_end`"):
            ScenarioConfig({**base, "solver.t_end": 1.001 * at_cap})
        with pytest.raises(ConfigError, match=r"solver\.t_end"):
            ScenarioConfig({**base, "solver.t_end": 1e14})

    def test_snapshot_cells_bounded(self):
        # every snapshot keeps 3 float64 arrays of nx + 1 values
        base = {"disturbance.T_period": 0.5, "solver.t_end": 1.0, "solver.snapshot_dt": 0.01}
        at_cap = MAX_SNAPSHOT_CELLS // 101 - 1
        ScenarioConfig({**base, "solver.nx": at_cap})
        with pytest.raises(ConfigError, match=r"invalid value for `solver\.nx`"):
            ScenarioConfig({**base, "solver.nx": at_cap + 1})
        with pytest.raises(ConfigError, match=r"invalid value for `solver\.nx`"):
            ScenarioConfig({"disturbance.T_period": 1e-8, "solver.t_end": 2e-8,
                            "solver.snapshot_dt": 1e-8, "solver.nx": 10 ** 13})

    def test_committed_configs_valid(self):
        for path in sorted((ROOT / "configs").glob("*.cfg")):
            ScenarioConfig.from_file(path)

    def test_bump_support_must_be_interior(self):
        with pytest.raises(ConfigError, match="bump support"):
            ScenarioConfig({"initial.family": "bump", "initial.center": 0.1,
                            "initial.width": 0.2})

    def test_replace_revalidates(self):
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError):
            cfg.replace(**{"feedback.k": -1.0})
        assert cfg.replace(**{"feedback.k": 8.0})["feedback.k"] == 8.0


class TestLibraryCallers:
    """ScenarioConfig(values) checks what a config file's text is checked for."""

    def test_replace_checks_types(self):
        with pytest.raises(ConfigError, match=r"`stationary\.u0`: expected float, got str"):
            ScenarioConfig().replace(**{"stationary.u0": "0.3"})

    @pytest.mark.parametrize("key", ["pipe.L", "solver.nx", "disturbance.seed"])
    def test_int_beyond_the_float_range_names_key(self, key):
        # a rule's float arithmetic would raise OverflowError on it
        with pytest.raises(ConfigError, match=rf"`{key.replace('.', '[.]')}`"):
            ScenarioConfig({key: 10 ** 400})

    def test_numbers_are_stored_as_their_key_type(self):
        cfg = ScenarioConfig({"pipe.a": 2, "disturbance.seed": np.uint64(3)})
        assert type(cfg["pipe.a"]) is float and type(cfg["disturbance.seed"]) is int

    @given(st.floats(1e-3, 1e4), st.floats(1e-3, 1e160), st.floats(1e-300, 1e308))
    @example(2.0, 4.0, 1e300 / 64)         # on the bound
    @example(2.0, 4.0, 1e307)              # finite, but Cg overflows
    @example(1e4, 1e146, 1e-8)             # k a on the feedback.k bound
    @settings(max_examples=200, deadline=None)
    def test_accepted_config_has_a_finite_cg(self, a, k, C_nu):
        # an infinite Cg would make the certified bound vacuous: the rules on
        # feedback.k and disturbance.C_nu reject every config that gives one
        try:
            cfg = ScenarioConfig({"pipe.a": a, "feedback.k": k, "disturbance.C_nu": C_nu,
                                  "stationary.u0": a / 4, "solver.nx": 16, "solver.t_end": 2.0})
        except ConfigError as exc:
            assert "`feedback.k`" in str(exc) or "`disturbance.C_nu`" in str(exc)
            return
        constants = compute_constants(cfg.pipe_params(), 0.6, 1.0, C_nu)
        assert math.isfinite(constants.Cg)


# any value of any type a caller may pass: floats (NaN, infinities, subnormals
# and the extremes included), ints beyond the float range, text, bools and None
ANY_VALUE = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308]),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.sampled_from([10 ** 400, -10 ** 400, 10 ** 309]),
    st.text(), st.booleans(), st.none())


def wrong_typed(typ, value) -> bool:
    """A value that no key of type `typ` takes, whatever its size."""
    if isinstance(value, bool) or value is None:
        return True
    if typ is str or isinstance(value, str):
        return not (typ is str and isinstance(value, str))
    return typ is int and isinstance(value, float) and not value.is_integer()


@pytest.mark.parametrize("key", list(SCHEMA))
@settings(max_examples=60, deadline=None)
@given(value=ANY_VALUE)
def test_every_key_builds_or_raises_config_error(key, value):
    try:
        ScenarioConfig({key: value})
    except ConfigError as exc:
        if wrong_typed(SCHEMA[key][0], value):
            assert f"`{key}`" in str(exc)
    else:
        assert not wrong_typed(SCHEMA[key][0], value)


class TestBuilders:
    def test_pipe_and_solver(self):
        cfg = ScenarioConfig({"pipe.a": 2.0, "pipe.theta": 0.3, "feedback.k": 4.0,
                              "solver.nx": 64, "solver.cfl": 0.4})
        p = cfg.pipe_params()
        assert (p.L, p.a, p.theta, p.k) == (1.0, 2.0, 0.3, 4.0)
        s = cfg.solver_config()
        assert (s.nx, s.cfl) == (64, 0.4)

    def test_compact_burst_gets_cutoff(self):
        cfg = ScenarioConfig({"disturbance.family": "compact_burst",
                              "solver.t_end": 6.0, "disturbance.T_period": 1.5})
        spec = cfg.disturbance_spec()
        assert spec.t_off == pytest.approx(4.5)
        cfg2 = ScenarioConfig({"disturbance.family": "decaying_burst"})
        assert cfg2.disturbance_spec().t_off == math.inf

    def test_initial_arrays(self):
        import numpy as np
        xs = np.linspace(0.0, 1.0, 65)
        z = ScenarioConfig().initial_arrays(xs)
        assert all(np.all(arr == 0.0) for arr in z)
        cfg = ScenarioConfig({"initial.family": "bump", "initial.amplitude": 0.5})
        u, v, w = cfg.initial_arrays(xs)
        assert u.max() == pytest.approx(0.5)
        assert np.all(v == 0.0)
        assert np.any(w != 0.0)

    def test_schema_covers_all_defaults(self):
        cfg = ScenarioConfig()
        assert set(cfg.values) == set(SCHEMA)
