import csv
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack_lab import _parallel
from harnack_lab import (GammaSchedule, GapPair, GridSpec, MCEstimate, NoiseStream,
                         bound_H_T, builtin_system, check_log_harnack, make_verdict,
                         sample_stationary_segments)
from harnack_lab import test_function as catalog_fn
from harnack_lab.bounds import _lambda_p
from harnack_lab.coefficients import _CATALOG
from harnack_lab.coupling import _check_measure
from harnack_lab.cli import (COMMANDS, ConfigError, ExperimentConfig, VERDICT_HEADER,
                             VERSION_TAG, _KEYS, _problem, config_segment, parse_config,
                             render_config, run_command, validate_for_command)
from oracles import keep_apart_at_t0


def cfg_text(**kw):
    base = {
        "d": 1, "r0": 1.0, "t": 2.0, "m": 50, "t0": None,
        "xi": "const:1.0", "eta": "zero",
        "name": "linear_additive", "params": {"a": -1.0, "c": 0.5, "s0": 1.0},
        "theta": 1.0, "p": None, "s_choice": None, "measure": "Q",
        "n": 500, "seed": 0, "burn_in": 2.0,
        "f": "quad_cap", "cap": 100.0, "out": "out", "verbosity": 0,
    }
    base.update(kw)
    lines = ["[problem]", f"d = {base['d']}", f"r0 = {base['r0']}",
             f"t = {base['t']}", f"m = {base['m']}"]
    if base["t0"] is not None:
        lines.append(f"t0 = {base['t0']}")
    lines += [f"xi = {base['xi']}", f"eta = {base['eta']}",
              "", "[system]", f"name = {base['name']}"]
    for k, v in base["params"].items():
        lines.append(f"{k} = {v}")
    lines += ["", "[coupling]", f"theta = {base['theta']}"]
    if base["p"] is not None:
        lines.append(f"p = {base['p']}")
    if base["s_choice"] is not None:
        lines.append(f"s_choice = {base['s_choice']}")
    lines += [f"measure = {base['measure']}",
              "", "[mc]", f"n = {base['n']}", f"seed = {base['seed']}",
              f"burn_in = {base['burn_in']}",
              "", "[functions]", f"f = {base['f']}", f"cap = {base['cap']}",
              "", "[output]", f"dir = {base['out']}",
              f"verbosity = {base['verbosity']}"]
    return "\n".join(lines) + "\n"


def launch(tmp_path, command, text, *extra):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    return run_command([command, "--config", str(cfg), *extra])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------ config parsing

def test_round_trip_default_config():
    assert parse_config(render_config(ExperimentConfig())) == ExperimentConfig()


def test_round_trip_loaded_config():
    cfg = ExperimentConfig(
        d=1, r0=0.5, T=1.5, m=200, t0=0.5, xi="zero", eta="const:0.25",
        system_name="sine_multiplicative",
        system_params={"a": -1.0, "c": 0.2, "s0": 0.1},
        theta=0.75, p=16.0, s_choice=0.25, measure="P",
        n=5000, seed=42, k_tol=2.5, k_viol=7.0, burn_in=3.0,
        f_name="exp_cap", cap=10.0, out_dir="results", verbosity=2)
    assert parse_config(render_config(cfg)) == cfg


def test_empty_text_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_inline_comments_stripped():
    cfg = parse_config("[mc]\nn = 123  # a modest sample\nseed = 9\n")
    assert cfg.n == 123 and cfg.seed == 9


def test_unparseable_text():
    with pytest.raises(ConfigError, match="unparseable"):
        parse_config("n = 1\n")


def test_all_violations_collected():
    text = "\n".join([
        "[problem]", "t = 2.0003", "xi = wobble",
        "[system]", "name = sine_multiplicative", "a = -1.0", "q = 2.0",
        "[coupling]", "theta = 2.5", "measure = R",
        "[mc]", "chains = 4",
        "[extra]", "x = 1",
    ])
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msgs = exc.value.violations
    assert len(msgs) >= 7
    joined = "\n".join(msgs)
    assert "unknown section [extra]" in joined
    assert "unknown key 'chains'" in joined
    assert "is not an integer multiple" in joined
    assert "segment spec 'wobble'" in joined
    assert "missing parameters" in joined
    assert "unknown parameters ['q']" in joined
    assert "theta" in joined
    assert "measure" in joined


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nn = 5\n",
    "[system]\nname = linear_additive\na = -1.0\nc = 0.5\ns0 = 1.0\n[DEFAULT]\nseed = 3\n",
], ids=["alone", "with-system"])
def test_default_section_is_unknown(text):
    # configparser's [DEFAULT] is a section like any other: neither
    # silently dropped nor copied into [system] as a parameter
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.violations == ["unknown section [DEFAULT]"]


def test_unparseable_values_reported_per_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("[mc]\nn = lots\nseed = -3\n")
    joined = "\n".join(exc.value.violations)
    assert "cannot parse 'lots'" in joined
    assert "seed" in joined


def test_render_config_exact_text():
    # every optional key set; [system] parameters come out sorted
    cfg = ExperimentConfig(
        d=2, r0=0.5, T=1.5, m=200, t0=0.5, xi="zero", eta="const:0.25",
        system_name="ou_nodelay", system_params={"s0": 0.1, "a": 2.0},
        theta=0.75, p=16.0, s_choice=0.25, measure="P",
        n=5000, seed=42, k_tol=2.5, k_viol=7.0, burn_in=3.0,
        f_name="exp_cap", cap=10.0, out_dir="results", verbosity=2)
    assert render_config(cfg) == "\n".join([
        "[problem]", "d = 2", "r0 = 0.5", "t = 1.5", "m = 200", "t0 = 0.5",
        "xi = zero", "eta = const:0.25", "",
        "[system]", "name = ou_nodelay", "a = 2.0", "s0 = 0.1", "",
        "[coupling]", "theta = 0.75", "p = 16.0", "s_choice = 0.25",
        "measure = P", "",
        "[mc]", "n = 5000", "seed = 42", "k_tol = 2.5", "k_viol = 7.0",
        "burn_in = 3.0", "",
        "[functions]", "f = exp_cap", "cap = 10.0", "",
        "[output]", "dir = results", "verbosity = 2", ""])
    assert parse_config(render_config(cfg)) == cfg


def test_violations_listed_in_order():
    # unknown sections and keys in file order, then unparseable values in
    # section order ([system] after [problem]), then the semantic checks
    text = "\n".join([
        "[output]", "verbosity = loud",
        "[problem]", "m = many", "xi = wobble",
        "[extra]", "x = 1",
        "[system]", "name = ou_nodelay", "a = fast", "s0 = 1.0",
        "[mc]", "n = lots", "chains = 4",
        "[coupling]", "theta = 2.5", "p = tiny",
        "[functions]", "cap = big", "f = cube",
    ])
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.violations == [
        "unknown section [extra]",
        "unknown key 'chains' in [mc]",
        "[problem] m: cannot parse 'many'",
        "[system] a: cannot parse 'fast'",
        "[coupling] p: cannot parse 'tiny'",
        "[mc] n: cannot parse 'lots'",
        "[functions] cap: cannot parse 'big'",
        "[output] verbosity: cannot parse 'loud'",
        "[problem] segment spec 'wobble': expected 'zero', 'const:<value>' or 'file:<path>'",
        "[coupling] theta must lie in (0, 2)",
        "[functions] unknown test function 'cube'; catalog: quad_cap, exp_cap",
    ]


def test_catalog_and_test_function_rules_are_config_errors():
    # each of these failed only at run time, one run per problem
    text = "\n".join([
        "[system]", "name = sine_multiplicative", "a = -1.0", "c = 0.2", "s0 = 0",
        "[coupling]", "theta = 3",
        "[functions]", "f = exp_cap", "cap = 800",
    ])
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.violations == [
        "[system] s0 must be positive",
        "[coupling] theta must lie in (0, 2)",
        "[functions] cap too large: exp would overflow",
    ]


@pytest.mark.parametrize("values, message", [
    ({("system", "s0"): "fast"}, "[system] s0: cannot parse 'fast'"),
    ({("system", "s0"): "inf"}, "[system] s0 must be finite"),
    ({("system", "a"): "nan"}, "[system] a must be finite"),
    ({("functions", "f"): "exp_cap", ("functions", "cap"): "big"},
     "[functions] cap: cannot parse 'big'"),
    ({("functions", "f"): "exp_cap", ("functions", "cap"): "inf"},
     "[functions] cap must be finite"),
    ({("functions", "cap"): "nan"}, "[functions] cap must be finite"),
], ids=["s0-fast", "s0-inf", "a-nan", "cap-big", "exp-cap-inf", "cap-nan"])
def test_placeholders_add_no_message(values, message):
    # a value that does not parse or is not finite is reported once; the
    # placeholder standing in for it (0.0 for s0) builds no system or test
    # function, so it adds no "s0 must be positive" or "cap too large"
    with pytest.raises(ConfigError) as exc:
        parse_config(config_with(values))
    assert exc.value.violations == [message]


def test_placeholder_still_checks_parameter_names():
    # s0 stands as a placeholder, which builds no system, but the names of
    # the section's parameters are checked all the same
    with pytest.raises(ConfigError) as exc:
        parse_config(config_with({("system", "s0"): "fast", ("system", "q"): "2"}))
    assert exc.value.violations == [
        "[system] s0: cannot parse 'fast'",
        "[system] system 'linear_additive' got unknown parameters ['q']"]


def test_readme_config_example_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(text)
    assert cfg.t0 == 1.0 and cfg.p == 16.0 and cfg.n == 10000
    assert parse_config(render_config(cfg)) == cfg


def test_readme_config_example_lists_every_key():
    # [system] is free-form past its name: the rest are catalog parameters
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    listed = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            sec = line.strip("[]")
        elif line and (sec != "system" or line.startswith("name ")):
            listed.append((sec, line.split("=", 1)[0].strip()))
    assert listed == [(sec, key) for sec, key, _, _ in _KEYS]


def test_readme_systems_table_lists_the_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Built-in systems\n", 1)[1].strip().split("\n\n", 1)[0]
    names = [row.split("|")[1].strip().strip("`") for row in table.splitlines()[2:]]
    assert names == list(_CATALOG)


def test_removed_merge_tolerance_is_an_unknown_key(tmp_path, capsys):
    text = cfg_text(t0=1.0, n=100, out=tmp_path / "res")
    text = text.replace("[coupling]\n", "[coupling]\ndelta_merge = 1e-8\n")
    assert launch(tmp_path, "couple", text) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "unknown key 'delta_merge' in [coupling]" in err


def test_t0_grid_checks():
    # off the grid, past t - r0, not positive: the deadline check's messages
    grid = GridSpec(1.0, 2.0, 100)
    for t0, what in ((0.505, "does not lie on the grid"), (1.5, "t0 <= T - r0"),
                     (-0.5, "must satisfy 0 < t0")):
        with pytest.raises(ValueError, match=what) as lib:
            grid.deadline_index(t0)
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[problem]\nm = 100\nt0 = {t0}\n")
        assert exc.value.violations == [f"[problem] {lib.value}"]


def test_grid_and_deadline_problems_reported_in_one_pass():
    # t0 is checked on the steps of h while t is off them
    with pytest.raises(ConfigError) as exc:
        parse_config("[problem]\nt = 2.0003\nm = 100\nt0 = 0.505\n")
    assert exc.value.violations == [
        "[problem] T=2.0003 is not an integer multiple of h=0.01",
        "[problem] t0=0.505 does not lie on the grid (h=0.01)"]


def pinned_log_harnack(s_choice):
    coeffs, grid, xi, eta = _problem(ExperimentConfig(m=50))
    check_log_harnack(coeffs, xi, eta, catalog_fn("quad_cap"), grid, 2, 0,
                      s_choice=s_choice)


OU_SYSTEM = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0})
ESTIMATE = MCEstimate(mean=1.0, std_error=0.1, n=100, seed=0)

# each value rule the config check hands to the library: the key's section,
# config values that break it, the command validated (None: parse_config
# alone) and the library call that states the rule
DELEGATED = {
    "d": ("problem", {("problem", "d"): "0"}, None,
          lambda: NoiseStream(seed=0, h=0.0025, dim=0)),
    "d-past-intp": ("problem", {("problem", "d"): "100000000000000000000"}, None,
                    lambda: NoiseStream(seed=0, h=0.0025, dim=10 ** 20)),
    "r0": ("problem", {("problem", "r0"): "-1"}, None, lambda: GridSpec(-1.0, 2.0, 400)),
    "m": ("problem", {("problem", "m"): "0"}, None, lambda: GridSpec(1.0, 2.0, 0)),
    "t": ("problem", {("problem", "t"): "2.0003"}, None, lambda: GridSpec(1.0, 2.0003, 400)),
    "xi": ("problem", {("problem", "xi"): "wobble"}, None,
           lambda: config_segment(ExperimentConfig(), "wobble")),
    "t-past-r0": ("problem", {("problem", "t"): "1.0"}, "bounds",
                  lambda: bound_H_T(OU_SYSTEM.constants, GapPair(1.0, 1.0), 1.0, 1.0)),
    "theta": ("coupling", {("coupling", "theta"): "2.5"}, None,
              lambda: GammaSchedule(theta=2.5, k4=-2.0, t0=1.0)),
    "p": ("coupling", {("coupling", "p"): "1.0"}, None, lambda: _lambda_p(1.0)),
    "s_choice": ("coupling", {("coupling", "s_choice"): "-1"}, None,
                 lambda: pinned_log_harnack(-1.0)),
    "s_choice-past-t-r0": ("coupling", {("coupling", "s_choice"): "1.5"}, "log-harnack",
                           lambda: pinned_log_harnack(1.5)),
    "measure": ("coupling", {("coupling", "measure"): "R"}, None,
                lambda: _check_measure("R")),
    "seed": ("mc", {("mc", "seed"): "-1"}, None, lambda: NoiseStream(seed=-1, h=0.0025, dim=1)),
    "k_tol": ("mc", {("mc", "k_tol"): "0"}, None,
              lambda: make_verdict("c", ESTIMATE, 1.0, k_tol=0.0)),
    "k_viol": ("mc", {("mc", "k_viol"): "2"}, None,
               lambda: make_verdict("c", ESTIMATE, 1.0, k_viol=2.0)),
    "burn_in": ("mc", {("mc", "burn_in"): "-1"}, None,
                lambda: sample_stationary_segments(OU_SYSTEM, GridSpec(1.0, 2.0, 400), 2, -1.0)),
    "m-underflow": ("problem", {("problem", "r0"): "1e-320", ("problem", "m"): "1000000"}, None,
                    lambda: GridSpec(1e-320, 1e-320, 1000000)),
    "stationary-delay": ("system", {}, "stationary",
                         lambda: sample_stationary_segments(
                             builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0}),
                             GridSpec(1.0, 2.0, 400), 2)),
    "f": ("functions", {("functions", "f"): "cube"}, None, lambda: catalog_fn("cube")),
}


@pytest.mark.parametrize("rule", DELEGATED)
def test_config_errors_are_the_library_messages(rule):
    # each rule is stated once, in the library: the config error is its
    # ValueError under the key's section, word for word
    sec, values, command, call = DELEGATED[rule]
    with pytest.raises(ValueError) as lib:
        call()
    with pytest.raises(ConfigError) as exc:
        validate_for_command(parse_config(config_with(values)), command) if command \
            else parse_config(config_with(values))
    assert exc.value.violations == [f"[{sec}] {lib.value}"]


# every float a config holds: the float rows of _KEYS and the parameters of
# the [system] section below
FLOAT_KEYS = [(sec, key) for sec, key, _, conv in _KEYS if conv is float] + [
    ("system", "a"), ("system", "c"), ("system", "s0")]


def config_with(values):
    """The default config as a file, with values[(section, key)] set."""
    sections = {"system": {"name": "linear_additive", "a": "-1.0", "c": "0.5", "s0": "1.0"}}
    for (sec, key), v in values.items():
        sections.setdefault(sec, {})[key] = v
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for sec, kv in sections.items())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("sec,key", FLOAT_KEYS)
def test_nonfinite_floats_are_config_errors(sec, key, value):
    # NaN passed every "x <= 0" rule, and inf overflowed the grid arithmetic
    with pytest.raises(ConfigError) as exc:
        parse_config(config_with({(sec, key): value}))
    assert exc.value.violations[0] == f"[{sec}] {key} must be finite"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("label", ["xi", "eta"])
def test_nonfinite_const_segments_are_config_errors(label, value):
    # const:nan parsed as a float and failed only when the segment was built
    with pytest.raises(ConfigError) as exc:
        parse_config(config_with({("problem", label): f"const:{value}"}))
    assert exc.value.violations == [
        f"[problem] segment spec 'const:{value}': segment values must be finite"]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(FLOAT_KEYS), st.floats().map(repr),
                       min_size=1, max_size=3))
def test_any_float_parses_or_is_a_config_error(values):
    try:
        cfg = parse_config(config_with(values))
    except ConfigError:
        return
    assert all(math.isfinite(getattr(cfg, fld)) for _, _, fld, conv in _KEYS
               if conv is float and getattr(cfg, fld) is not None)


def test_nan_k_tol_no_longer_reads_inconclusive(tmp_path, capsys):
    # with k_tol = nan, a claim that holds by a wide margin read
    # "inconclusive" (exit 3)
    text = cfg_text(out=tmp_path / "res").replace("[mc]\n", "[mc]\nk_tol = nan\n")
    assert launch(tmp_path, "log-harnack", text) == 1
    assert "[mc] k_tol must be finite" in capsys.readouterr().err


def test_deadline_at_t_minus_r0_is_checked_on_grid_indices():
    # 0.3 - 0.1 is 0.19999999999999998 in floats; t0 = 0.2 is t - r0 on the
    # grid (20 + 10 <= 30 steps) and 0.21 is one step past it
    assert parse_config("[problem]\nr0 = 0.1\nt = 0.3\nm = 10\nt0 = 0.2\n").t0 == 0.2
    with pytest.raises(ConfigError, match="t0 <= T - r0"):
        parse_config("[problem]\nr0 = 0.1\nt = 0.3\nm = 10\nt0 = 0.21\n")


def test_validate_for_command_gates():
    cfg = parse_config("")
    with pytest.raises(ConfigError, match="t0"):
        validate_for_command(cfg, "couple")
    with pytest.raises(ConfigError, match="t0"):
        validate_for_command(cfg, "entropy")
    with pytest.raises(ConfigError, match="p"):
        validate_for_command(cfg, "power-harnack")
    short = parse_config("[problem]\nt = 1.0\n")
    with pytest.raises(ConfigError, match="delay window"):
        validate_for_command(short, "log-harnack")
    pinned = parse_config("[coupling]\ns_choice = 1.5\n")
    with pytest.raises(ConfigError, match="s_choice"):
        validate_for_command(pinned, "log-harnack")
    validate_for_command(cfg, "log-harnack")  # fine as-is
    validate_for_command(cfg, "simulate")


# ------------------------------------------------------------ CLI plumbing

def test_help_exits_zero_and_bad_args_exit_one(capsys):
    assert run_command(["--help"]) == 0
    assert run_command(["frobnicate", "--config", "x"]) == 1
    assert run_command([]) == 1
    capsys.readouterr()


def test_module_runs_without_runpy_warning():
    # the package does not import the CLI, so running it as a module loads
    # harnack_lab.cli once, as __main__
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "harnack_lab.cli", "--help"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage: harnack-lab" in done.stdout


def test_missing_config_file(tmp_path, capsys):
    rc = run_command(["bounds", "--config", str(tmp_path / "nope.ini")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_config_error_goes_to_stderr(tmp_path, capsys):
    rc = launch(tmp_path, "bounds", "[coupling]\ntheta = 9\n")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "theta" in err


# ------------------------------------------------------------ commands

def test_bounds_csv_schema(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(name="sine_multiplicative",
                    params={"a": -1.0, "c": 0.2, "s0": 0.1},
                    t0=1.0, p=16.0, out=out)
    assert launch(tmp_path, "bounds", text) == 0
    header, rows = read_csv(out / "bounds.csv")
    assert header[:4] == ["claim", "value", "s_star", "eps_star"]
    claims = [r[0] for r in rows]
    assert claims == ["log_harnack_H_T", "entropy_deadline_bound",
                      "entropy_full_bound", "power_harnack_Phi_p"]
    for r in rows:
        assert float(r[1]) > 0
        assert r[-1] == VERSION_TAG


def test_bounds_accepts_constants_pseudo_system(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(name="constants",
                    params={"k1": 1.0, "k2": 0.0, "k3": 1.0, "k4": 1.0},
                    out=out)
    assert launch(tmp_path, "bounds", text) == 0
    _, rows = read_csv(out / "bounds.csv")
    assert float(rows[0][1]) == pytest.approx(4.6639534, abs=1e-5)


def test_simulate_rejects_constants_pseudo_system(tmp_path, capsys):
    text = cfg_text(name="constants",
                    params={"k1": 1.0, "k2": 0.0, "k3": 1.0, "k4": 1.0},
                    out=tmp_path / "res")
    assert launch(tmp_path, "simulate", text) == 1
    assert "pseudo-system" in capsys.readouterr().err


CONSTANTS = {"name": "constants", "params": {"k1": 1.0, "k2": 0.0, "k3": 1.0, "k4": 1.0}}
SINE = {"name": "sine_multiplicative", "params": {"a": -1.0, "c": 0.2, "s0": 0.1}}
PSEUDO = "[system] the 'constants' pseudo-system carries no dynamics"


@pytest.mark.parametrize("command, kw, message", [
    ("simulate", {"params": {"a": -1.0, "c": 0.5, "s0": 0.0}}, "[system] s0 must be positive"),
    ("audit", {**SINE, "params": {"a": -1.0, "c": 0.2, "s0": -0.1}},
     "[system] s0 must be positive"),
    ("bounds", {"name": "ou_nodelay", "params": {"a": 1.0, "s0": 0.0}},
     "[system] s0 must be positive"),
    ("simulate", {**SINE, "d": 2}, "[system] sine_multiplicative is one-dimensional"),
    ("bounds", {**CONSTANTS, "params": {"k1": 1.0, "k2": 0.0, "k3": 0.0, "k4": 1.0}},
     "[system] k3 must be positive"),
    ("bounds", {**CONSTANTS, "params": {"k1": -1.0, "k2": 0.0, "k3": 1.0, "k4": 1.0}},
     "[system] k1 and k2 must be nonnegative"),
    ("simulate", CONSTANTS, PSEUDO),
    ("audit", CONSTANTS, PSEUDO),
    ("entropy", CONSTANTS, PSEUDO),
    ("log-harnack", {"f": "exp_cap", "cap": 800.0},
     "[functions] cap too large: exp would overflow"),
    # exp(50)^16 = e^800 leaves the float range, though the cap alone is valid
    ("power-harnack", {**SINE, "p": 16.0, "f": "exp_cap", "cap": 50.0},
     "[functions] f^p overflows for exp_cap with p=16; lower the cap"),
], ids=["linear-s0", "sine-s0", "ou-s0", "sine-d2", "k3-zero", "k1-negative",
        "constants-simulate", "constants-audit", "constants-entropy", "exp-cap-800",
        "exp-cap-50-p-16"])
def test_catalog_rules_are_config_errors(tmp_path, capsys, command, kw, message):
    # the catalog's value rules and the test function's cap rule are
    # checked with the config, before anything runs
    out = tmp_path / "res"
    assert launch(tmp_path, command, cfg_text(t0=1.0, n=100, out=out, **kw)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert not out.exists()


def test_simulate_writes_path(tmp_path):
    out = tmp_path / "res"
    assert launch(tmp_path, "simulate", cfg_text(out=out)) == 0
    header, rows = read_csv(out / "simulate.csv")
    assert header == ["step", "t", "x0", "seed", "n", "h", "version"]
    assert len(rows) == 101  # n_T + 1 = T/h + 1 = 2/0.02 + 1
    assert float(rows[0][2]) == 1.0  # starts from xi(0)
    assert rows[-1][1] == "2.0"


def test_simulate_reads_segment_file(tmp_path):
    seg = tmp_path / "xi.txt"
    np.savetxt(seg, np.full(51, 3.0))
    out = tmp_path / "res"
    text = cfg_text(xi=f"file:{seg}", out=out)
    assert launch(tmp_path, "simulate", text) == 0
    _, rows = read_csv(out / "simulate.csv")
    assert float(rows[0][2]) == 3.0


def test_segment_file_shape_enforced(tmp_path, capsys):
    seg = tmp_path / "xi.txt"
    np.savetxt(seg, np.full(7, 3.0))
    text = cfg_text(xi=f"file:{seg}", out=tmp_path / "res")
    assert launch(tmp_path, "simulate", text) == 1
    assert "segment file" in capsys.readouterr().err


def test_couple_single_path_dump(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(t0=1.0, n=1, out=out)
    assert launch(tmp_path, "couple", text) == 0
    header, rows = read_csv(out / "couple.csv")
    assert header == ["step", "t", "x0", "y0", "gap", "gamma", "phi_sq",
                      "log_weight", "seed", "n", "h", "version"]
    by_t = {float(r[1]): r for r in rows}
    assert by_t[0.0][5] != ""          # gamma defined before the deadline
    assert by_t[1.0][5] == ""          # and absent from the deadline on
    assert float(by_t[1.0][4]) == 0.0  # merged exactly at t0
    assert float(by_t[2.0][4]) == 0.0
    assert rows[-1][6] == ""           # no phi increment past the last step
    assert rows[0][-1] == VERSION_TAG


def test_couple_dump_gamma_stops_at_the_deadline_index(tmp_path):
    # t0 = 5/7 is grid row 5, but 5 h rounds to just below t0; the kernel
    # steps row 5 as after t0, so the dump gives it no gamma
    out = tmp_path / "res"
    text = cfg_text(m=7, t0=repr(5 / 7), n=1, out=out)
    assert launch(tmp_path, "couple", text) == 0
    header, rows = read_csv(out / "couple.csv")
    assert float(rows[5][1]) < 5 / 7
    assert [r[header.index("gamma")] != "" for r in rows] == [k < 5 for k in range(15)]


def test_couple_verdict_q_measure(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(t0=1.0, n=400, out=out)
    assert launch(tmp_path, "couple", text) == 0
    header, rows = read_csv(out / "couple.csv")
    assert header == VERDICT_HEADER
    claims = {r[0]: r for r in rows}
    assert claims["coupling_unmerged_fraction"][7] == "holds"
    assert float(claims["coupling_unmerged_fraction"][1]) == 0.0
    assert claims["entropy_half_phi_sq"][7] == "info"
    assert float(claims["entropy_half_phi_sq"][1]) > 0


def test_couple_verdict_p_measure(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(t0=1.0, n=2000, measure="P", out=out)
    assert launch(tmp_path, "couple", text) == 0
    _, rows = read_csv(out / "couple.csv")
    claims = {r[0]: r for r in rows}
    w = claims["girsanov_weight_mean"]
    assert w[7] == "holds"
    assert abs(float(w[1]) - 1.0) < 4 * float(w[2])


def test_couple_p_prints_ess_at_verbosity_2(tmp_path, capsys):
    out = tmp_path / "res"
    text = cfg_text(t0=1.0, n=300, measure="P", out=out, verbosity=2)
    assert launch(tmp_path, "couple", text) == 0
    lines = capsys.readouterr().out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("girsanov_weight_mean"))
    assert lines[i + 1].startswith("  meta: {'ess': ")
    ess = float(lines[i + 1].split("'ess': ")[1].rstrip("}"))
    assert 0.0 < ess <= 300.0


def test_couple_exit_2_when_merge_fails(tmp_path, monkeypatch):
    keep_apart_at_t0(monkeypatch)
    out = tmp_path / "res"
    text = cfg_text(t0=1.0, n=100, out=out)
    assert launch(tmp_path, "couple", text) == 2
    _, rows = read_csv(out / "couple.csv")
    claims = {r[0]: r for r in rows}
    assert claims["coupling_unmerged_fraction"][7] == "violated"
    assert float(claims["coupling_unmerged_fraction"][1]) == 1.0


def test_entropy_holds_and_exit_codes(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(t0=1.0, n=400, out=out)
    assert launch(tmp_path, "entropy", text) == 0
    header, rows = read_csv(out / "entropy.csv")
    assert header == VERDICT_HEADER
    assert rows[0][0] == "entropy_vs_bound"
    assert rows[0][7] == "holds"
    assert float(rows[0][1]) <= float(rows[0][5])


@pytest.mark.parametrize("command, n", [("entropy", 200), ("couple", 1)])
def test_deadline_at_t_minus_r0_runs(tmp_path, command, n):
    # t0 = t - r0 = 0.2, which 0.3 - 0.1 misses by one ulp
    out = tmp_path / "res"
    text = cfg_text(r0=0.1, t=0.3, m=10, t0=0.2, n=n, out=out)
    assert launch(tmp_path, command, text) == 0
    assert (out / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["entropy", "couple"])
def test_deadline_one_step_past_t_minus_r0_is_a_config_error(tmp_path, capsys, command):
    text = cfg_text(r0=0.1, t=0.3, m=10, t0=0.21, n=200, out=tmp_path / "res")
    assert launch(tmp_path, command, text) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_entropy_exit_3_when_failures_dominate(tmp_path, monkeypatch):
    keep_apart_at_t0(monkeypatch)
    text = cfg_text(t0=1.0, n=100, out=tmp_path / "res")
    assert launch(tmp_path, "entropy", text) == 3


def test_log_harnack_holds(tmp_path):
    out = tmp_path / "res"
    assert launch(tmp_path, "log-harnack", cfg_text(n=800, out=out)) == 0
    header, rows = read_csv(out / "log_harnack.csv")
    assert header == VERDICT_HEADER
    assert rows[0][0] == "log_harnack"
    assert rows[0][7] == "holds"
    assert int(rows[0][8]) == 800
    assert float(rows[0][10]) == 0.02


def test_log_harnack_at_delay_boundary_exits_1(tmp_path, capsys):
    text = cfg_text(t=1.0, out=tmp_path / "res")
    assert launch(tmp_path, "log-harnack", text) == 1
    assert "delay window" in capsys.readouterr().err


def test_log_harnack_s_choice_at_t_minus_r0(tmp_path, capsys):
    # s_choice = t - r0 = 0.2 runs; one grid step past it does not
    out = tmp_path / "res"
    text = cfg_text(r0=0.1, t=0.3, m=10, s_choice=0.2, n=200, out=out)
    assert launch(tmp_path, "log-harnack", text) == 0
    assert (out / "log_harnack.csv").exists()
    capsys.readouterr()
    text = cfg_text(r0=0.1, t=0.3, m=10, s_choice=0.21, n=200, out=out)
    assert launch(tmp_path, "log-harnack", text) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "s_choice" in err


def test_power_harnack_holds(tmp_path, capsys):
    out = tmp_path / "res"
    text = cfg_text(name="sine_multiplicative",
                    params={"a": -1.0, "c": 0.2, "s0": 0.1},
                    p=16.0, n=800, out=out, verbosity=1)
    assert launch(tmp_path, "power-harnack", text) == 0
    _, rows = read_csv(out / "power_harnack.csv")
    assert rows[0][0] == "power_harnack"
    assert rows[0][7] == "holds"
    # the report line names the right side's form: here the Jensen bound
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("power_harnack: ") and line.endswith("verdict=holds  rhs_form=jensen")


def test_power_harnack_below_threshold_exits_1(tmp_path, capsys):
    # p = 9 = (1 + K2 K3)^2 on this system: rejected before any path runs
    text = cfg_text(name="sine_multiplicative",
                    params={"a": -1.0, "c": 0.2, "s0": 0.1},
                    p=9.0, n=100, out=tmp_path / "res")
    assert launch(tmp_path, "power-harnack", text) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "[coupling] p must exceed (1 + K2 K3)^2 = 9, got p=9" in err
    assert not (tmp_path / "res").exists()


def test_power_harnack_overflowing_f_p_exits_1(tmp_path, capsys):
    # exp_cap at cap 100 raised to p = 16 leaves the float range: a config
    # error, reported before anything runs
    text = cfg_text(name="sine_multiplicative",
                    params={"a": -1.0, "c": 0.2, "s0": 0.1},
                    p=16.0, n=100, f="exp_cap", cap=100.0, out=tmp_path / "res")
    assert launch(tmp_path, "power-harnack", text) == 1
    err = capsys.readouterr().err
    assert err == ("config error: invalid config:\n"
                   "  [functions] f^p overflows for exp_cap with p=16; lower the cap\n")
    assert not (tmp_path / "res").exists()


def test_bounds_below_power_threshold_is_a_config_error(tmp_path, capsys):
    # the threshold check runs before H_T and the entropy bounds
    text = cfg_text(name="sine_multiplicative",
                    params={"a": -1.0, "c": 0.2, "s0": 0.1},
                    t0=1.0, p=9.0, out=tmp_path / "res")
    assert launch(tmp_path, "bounds", text) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "[coupling] p must exceed (1 + K2 K3)^2 = 9, got p=9" in err
    assert not (tmp_path / "res").exists()
    # one step above the threshold runs
    assert launch(tmp_path, "bounds", cfg_text(
        name="sine_multiplicative", params={"a": -1.0, "c": 0.2, "s0": 0.1},
        t0=1.0, p=9.5, out=tmp_path / "res")) == 0


def test_stationary_runs_on_markov_system(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(name="ou_nodelay", params={"a": 1.0, "s0": 1.0},
                    n=400, burn_in=4.0, out=out)
    assert launch(tmp_path, "stationary", text) == 0
    header, rows = read_csv(out / "stationary.csv")
    assert header[:4] == ["component", "endpoint_mean", "endpoint_var",
                          "lag_r0_autocov"]
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(0.5, rel=0.35)


def test_stationary_rejects_delay_system(tmp_path, capsys):
    # a config error, found before anything runs, not a run-time error
    text = cfg_text(n=100, out=tmp_path / "res")
    assert launch(tmp_path, "stationary", text) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "[system] stationary sampling needs a delay-free system" in err
    assert not (tmp_path / "res").exists()


def test_int_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    # it leaked OverflowError from GridSpec: "error: ..." naming no section
    m = "1" + "0" * 400
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[problem]\nm = {m}\n")
    assert exc.value.violations == ["[problem] int too large to convert to float"]
    text = cfg_text(m=m, out=tmp_path / "res")
    assert launch(tmp_path, "bounds", text) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "[problem] int too large" in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_d_past_numpy_indexing_is_a_config_error(tmp_path, capsys, command):
    # it failed at run time, naming the segment spec: "error: segment spec
    # 'const:1.0': Maximum allowed dimension exceeded"
    text = cfg_text(d=10 ** 20, name="ou_nodelay", params={"a": 1.0, "s0": 1.0},
                    out=tmp_path / "res")
    assert launch(tmp_path, command, text) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("[problem]") == 1 and "got dim=100000000000000000000" in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_unallocatable_d_is_one_error_line(tmp_path, capsys, command):
    # d = 2^50 passes the config check, but numpy refuses its 8 PiB arrays
    # at once; the MemoryError ended in a traceback
    text = cfg_text(d=2 ** 50, name="ou_nodelay", params={"a": 1.0, "s0": 1.0},
                    out=tmp_path / "res")
    assert launch(tmp_path, command, text) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Unable to allocate" in lines[0]
    assert not (tmp_path / "res").exists()


def test_audit_passes_catalog_system(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(name="sine_multiplicative",
                    params={"a": -1.0, "c": 0.2, "s0": 0.1},
                    n=600, out=out)
    assert launch(tmp_path, "audit", text) == 0
    header, rows = read_csv(out / "audit.csv")
    assert header[0] == "condition"
    assert [r[0] for r in rows] == ["A1", "A2", "A3", "A4"]
    assert all(r[3] == "true" for r in rows)


# ------------------------------------------------------------ output

OU = {"name": "ou_nodelay", "params": {"a": 1.0, "s0": 1.0}}
# every command, with its lines at verbosity 2 that carry a report's meta
RUNS = {
    "audit": ("audit", dict(n=50), 0),
    "simulate": ("simulate", {}, 0),
    "couple-dump": ("couple", dict(t0=1.0, n=1), 0),
    "couple-q": ("couple", dict(t0=1.0, n=50), 0),
    "couple-p": ("couple", dict(t0=1.0, n=50, measure="P"), 1),
    "bounds": ("bounds", dict(t0=1.0, p=16.0, **SINE), 0),
    "entropy": ("entropy", dict(t0=1.0, n=50), 0),
    "log-harnack": ("log-harnack", dict(n=50), 1),
    "power-harnack": ("power-harnack", dict(p=16.0, n=50, **SINE), 1),
    "stationary": ("stationary", dict(n=50, **OU), 0),
}


def run_at(tmp_path, capsys, run, verbosity, **kw):
    command, base, _ = RUNS[run]
    rc = launch(tmp_path, command, cfg_text(m=10, verbosity=verbosity, **{**base, **kw}))
    out, err = capsys.readouterr()
    return rc, out.splitlines(), err


@pytest.mark.parametrize("run", RUNS)
def test_verbosity_sets_what_each_command_prints(tmp_path, capsys, run):
    # 0 prints nothing, 1 the report without meta, 2 adds each report's meta
    lines = {}
    for v in (0, 1, 2):
        rc, lines[v], err = run_at(tmp_path, capsys, run, v, out=tmp_path / f"v{v}")
        assert (rc, err) == (0, "")
    assert lines[0] == []
    assert lines[1] and not any("meta:" in line for line in lines[1])
    meta = [line for line in lines[2] if line.startswith("  meta: ")]
    assert len(meta) == RUNS[run][2]
    assert [line for line in lines[2] if line not in meta] == lines[1]


@pytest.mark.parametrize("run", RUNS)
def test_unwritable_csv_prints_one_error_and_no_report(tmp_path, capsys, run):
    # the CSV is written before any report line is printed
    (tmp_path / "blocker").write_text("")
    rc, lines, err = run_at(tmp_path, capsys, run, 2, out=tmp_path / "blocker" / "res")
    assert rc == 1
    assert lines == []
    assert err.startswith("error: ") and err.count("\n") == 1


def test_audit_failure_exits_2(tmp_path, capsys, monkeypatch):
    import dataclasses

    from harnack_lab import cli

    def audit(*args, **kwargs):
        report = real(*args, **kwargs)
        a2 = dataclasses.replace(report.conditions["A2"], passed=False)
        return dataclasses.replace(report, conditions={**report.conditions, "A2": a2})

    real = cli.audit_assumptions
    monkeypatch.setattr(cli, "audit_assumptions", audit)
    out = tmp_path / "res"
    rc, lines, _ = run_at(tmp_path, capsys, "audit", 1, out=out)
    assert rc == 2
    assert [line.endswith("FAIL") for line in lines] == [False, True, False, False]
    _, rows = read_csv(out / "audit.csv")
    assert [r[3] for r in rows] == ["true", "false", "true", "true"]


# every name of harnack_lab.cli that perfbench/tracer.py wraps
TRACED = ("parse_config", "_write_csv", "builtin_system", "audit_assumptions",
          "bound_H_T", "bound_Phi_p", "estimate_entropy_Q", "estimate_martingale_mean",
          "check_log_harnack", "check_power_harnack", "sample_stationary_segments")


def test_traced_names_are_looked_up_at_call_time(tmp_path, capsys, monkeypatch):
    # the tracer replaces these module attributes and skips absent ones, so
    # a name bound at import would silently zero its per-layer metrics
    from harnack_lab import cli

    calls = {name: [] for name in TRACED}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    for run in RUNS:
        assert run_at(tmp_path, capsys, run, 0, out=tmp_path / run)[0] == 0
    assert {name for name, seen in calls.items() if not seen} == set()
    # the tracer reads the path and the row count from the positional arguments
    for args, kwargs in calls["_write_csv"]:
        path, header, rows = args
        assert kwargs == {}
        assert len(read_csv(path)[1]) == len(rows)


def test_readme_lists_the_csv_columns(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | CSV file | columns |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines()[1:]:
        who, files, cols = line.strip("|").split("|")
        header = cols.strip(" `").replace("x0..", "x0, x1").replace("y0..", "y0, y1")
        for run, csv_file in zip(re.findall(r"`([a-z-]+)`( \(n [=≥] [12]\))?", who),
                                 re.findall(r"`([a-z_]+\.csv)`", files), strict=True):
            key = {"couple (n = 1)": "couple-dump", "couple (n ≥ 2)": "couple-q"}.get(
                "".join(run), run[0])
            listed[key] = (csv_file, header.split(", "))
    written = {}
    for run in RUNS:
        d = 1 if run in ("bounds", "power-harnack") else 2
        out = tmp_path / run
        assert run_at(tmp_path, capsys, run, 0, out=out, d=d)[0] == 0
        (csv_file,) = os.listdir(out)
        written[run] = (csv_file, read_csv(out / csv_file)[0])
    listed["couple-p"] = listed["couple-q"]
    assert listed == written


# ------------------------------------------------------------ overrides

def test_seed_paths_out_overrides(tmp_path):
    out2 = tmp_path / "elsewhere"
    text = cfg_text(t0=1.0, n=400, out=tmp_path / "res")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    rc = run_command(["couple", "--config", str(cfg), "--seed", "123",
                      "--paths", "1", "--out", str(out2)])
    assert rc == 0
    header, rows = read_csv(out2 / "couple.csv")
    assert "gamma" in header          # --paths 1 switched to the dump format
    assert rows[0][8] == "123"        # seed column reflects the override


@pytest.mark.parametrize("command", ["bounds", "audit"])
@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "[mc] seed must be an integer in [0, 2**63)"),
    ("--paths", "0", "[mc] n must be >= 1"),
])
def test_overrides_are_validated(tmp_path, capsys, command, flag, value, message):
    # the same checks as a config file with that value
    out = tmp_path / "res"
    assert launch(tmp_path, command, cfg_text(out=out), flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_bad_worker_count_exits_1_for_every_command(tmp_path, capsys, command):
    # checked before the command runs, also by commands that never fork
    base = next(kw for cmd, kw, _ in RUNS.values() if cmd == command)
    text = cfg_text(m=10, out=tmp_path / "res", **base)
    for extra in ("0", "-3"):
        assert launch(tmp_path, command, text, "--threads", extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("command, kw", [
    ("entropy", {}),
    ("log-harnack", {}),
    ("power-harnack", {"name": "sine_multiplicative",
                       "params": {"a": -1.0, "c": 0.2, "s0": 0.1}, "p": 16.0}),
    ("stationary", {"name": "ou_nodelay", "params": {"a": 1.0, "s0": 1.0}}),
])
def test_one_path_is_a_config_error_for_estimates(tmp_path, capsys, command, kw):
    # one path gives no standard error; only couple takes n = 1, as a dump
    out = tmp_path / "res"
    text = cfg_text(t=2.0, m=10, t0=1.0, n=1, out=out, **kw)
    assert launch(tmp_path, command, text) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{command} needs [mc] n >= 2" in err
    assert not out.exists()


def test_reruns_are_byte_identical_across_threads(tmp_path, monkeypatch):
    # couple under P, 2 * 8192 + 77 pairs: four full chunks of 4096 pairs
    # and a short one, run in the calling process or forked to one pool of
    # min(8, CPUs) = 2 workers (in the calling process both times where the
    # platform has no fork)
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    real, forks = _parallel._fork_pool, []

    def fork_pool(fn, workers):
        forks.append(workers)
        return real(fn, workers)

    monkeypatch.setattr(_parallel, "_fork_pool", fork_pool)
    csvs = []
    for threads in ("1", "8"):
        out = tmp_path / threads
        text = cfg_text(n=2 * 8192 + 77, m=10, t0=1.0, measure="P", out=out)
        assert launch(tmp_path, "couple", text, "--threads", threads) == 0
        csvs.append((out / "couple.csv").read_bytes())
    assert forks == ([2] if "fork" in multiprocessing.get_all_start_methods() else [])
    assert csvs[0] == csvs[1]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform has no fork start method")
@pytest.mark.parametrize("command,kw", [
    ("log-harnack", {}),
    ("power-harnack", {"name": "sine_multiplicative",
                       "params": {"a": -1.0, "c": 0.2, "s0": 0.1}, "p": 16.0})])
def test_paired_checks_are_byte_identical_across_workers(tmp_path, monkeypatch,
                                                         command, kw):
    # 2 * 4096 + 77 pairs: two full pair chunks and a short one, forked to
    # two workers or run in the calling process
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        text = cfg_text(n=2 * 4096 + 77, m=10, out=out, **kw)
        assert launch(tmp_path, command, text, "--threads", threads) == 0
        csvs.append((out / (command.replace("-", "_") + ".csv")).read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform has no fork start method")
def test_dead_worker_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    import harnack_lab.estimators as est_mod
    parent = os.getpid()

    def die(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("chunk ran in the calling process")
        os._exit(1)

    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    monkeypatch.setattr(est_mod, "_coupled_batch", die)
    rc = launch(tmp_path, "entropy", cfg_text(n=9000, m=4, t0=1.0, out=tmp_path / "o"),
                "--threads", "2")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: a worker process died")
    assert err.count("\n") == 1
