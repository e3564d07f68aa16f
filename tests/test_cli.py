import csv
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack_lab.cli import (ConfigError, ExperimentConfig, VERDICT_HEADER,
                             VERSION_TAG, _KEYS, parse_config, render_config,
                             run_command, validate_for_command)


def cfg_text(**kw):
    base = {
        "d": 1, "r0": 1.0, "t": 2.0, "m": 50, "t0": None,
        "xi": "const:1.0", "eta": "zero",
        "name": "linear_additive", "params": {"a": -1.0, "c": 0.5, "s0": 1.0},
        "theta": 1.0, "p": None, "s_choice": None, "delta_merge": 1e-8,
        "measure": "Q", "n": 500, "seed": 0, "burn_in": 2.0,
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
    lines += [f"delta_merge = {base['delta_merge']}",
              f"measure = {base['measure']}",
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
        theta=0.75, p=16.0, s_choice=0.25, delta_merge=1e-10, measure="P",
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
    assert "not a positive multiple" in joined
    assert "xi=" in joined
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
        theta=0.75, p=16.0, s_choice=0.25, delta_merge=1e-10, measure="P",
        n=5000, seed=42, k_tol=2.5, k_viol=7.0, burn_in=3.0,
        f_name="exp_cap", cap=10.0, out_dir="results", verbosity=2)
    assert render_config(cfg) == "\n".join([
        "[problem]", "d = 2", "r0 = 0.5", "t = 1.5", "m = 200", "t0 = 0.5",
        "xi = zero", "eta = const:0.25", "",
        "[system]", "name = ou_nodelay", "a = 2.0", "s0 = 0.1", "",
        "[coupling]", "theta = 0.75", "p = 16.0", "s_choice = 0.25",
        "delta_merge = 1e-10", "measure = P", "",
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
        "[coupling]", "theta = 2.5", "delta_merge = tiny",
        "[functions]", "cap = big", "f = cube",
    ])
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.violations == [
        "unknown section [extra]",
        "unknown key 'chains' in [mc]",
        "[problem] m: cannot parse 'many'",
        "[system] a: cannot parse 'fast'",
        "[coupling] delta_merge: cannot parse 'tiny'",
        "[mc] n: cannot parse 'lots'",
        "[functions] cap: cannot parse 'big'",
        "[output] verbosity: cannot parse 'loud'",
        "[problem] xi='wobble': expected 'zero', 'const:<value>' or 'file:<path>'",
        "[coupling] theta must lie in (0, 2)",
        "[functions] f must be one of ('quad_cap', 'exp_cap')",
    ]


def test_readme_config_example_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(text)
    assert cfg.t0 == 1.0 and cfg.p == 16.0 and cfg.n == 10000
    assert parse_config(render_config(cfg)) == cfg


def test_t0_grid_checks():
    with pytest.raises(ConfigError, match="not on the grid"):
        parse_config("[problem]\nm = 100\nt0 = 0.505\n")
    with pytest.raises(ConfigError, match="t0 <= t - r0"):
        parse_config("[problem]\nm = 100\nt0 = 1.5\n")
    with pytest.raises(ConfigError, match="t0 must be positive"):
        parse_config("[problem]\nm = 100\nt0 = -0.5\n")


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
    assert exc.value.violations == [f"[problem] {label} must be finite"]


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
    with pytest.raises(ConfigError, match="t0 <= t - r0"):
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


def test_couple_exit_2_when_merge_fails(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(t0=1.0, n=100, delta_merge=-1.0, out=out)
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


def test_entropy_exit_3_when_failures_dominate(tmp_path):
    text = cfg_text(t0=1.0, n=100, delta_merge=-1.0, out=tmp_path / "res")
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


def test_power_harnack_holds(tmp_path):
    out = tmp_path / "res"
    text = cfg_text(name="sine_multiplicative",
                    params={"a": -1.0, "c": 0.2, "s0": 0.1},
                    p=16.0, n=800, out=out)
    assert launch(tmp_path, "power-harnack", text) == 0
    _, rows = read_csv(out / "power_harnack.csv")
    assert rows[0][0] == "power_harnack"
    assert rows[0][7] == "holds"


def test_power_harnack_below_threshold_exits_1(tmp_path, capsys):
    text = cfg_text(name="sine_multiplicative",
                    params={"a": -1.0, "c": 0.2, "s0": 0.1},
                    p=9.0, n=100, out=tmp_path / "res")
    assert launch(tmp_path, "power-harnack", text) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "9" in err


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
    text = cfg_text(n=100, out=tmp_path / "res")
    assert launch(tmp_path, "stationary", text) == 1
    assert "delay" in capsys.readouterr().err


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
    ("--seed", "-1", "[mc] seed must lie in [0, 2**63)"),
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


def test_reruns_are_byte_identical_across_threads(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(cfg_text(n=2000, out=tmp_path / "a"))
    assert run_command(["log-harnack", "--config", str(cfg),
                        "--threads", "1"]) == 0
    one = (tmp_path / "a" / "log_harnack.csv").read_bytes()
    cfg.write_text(cfg_text(n=2000, out=tmp_path / "b"))
    assert run_command(["log-harnack", "--config", str(cfg),
                        "--threads", "8"]) == 0
    eight = (tmp_path / "b" / "log_harnack.csv").read_bytes()
    assert one == eight


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
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
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

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(est_mod, "_coupled_batch", die)
    rc = launch(tmp_path, "entropy", cfg_text(n=9000, m=4, t0=1.0, out=tmp_path / "o"),
                "--threads", "2")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: a worker process died")
    assert err.count("\n") == 1
