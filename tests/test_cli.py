"""Command-line behavior: exit codes, file outputs, determinism."""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ovflow.cli import build_initial_stack, console_main, load_config, main, write_portrait_svg
from ovflow.flow import integrate, integrate_baseline
from ovflow.linnet import product
from ovflow.sigmoid import phase_portrait

from _oracles import read_trajectory_csv, write_portrait_svg_per_arrow

TARGET = [[2.0, 0.3], [-0.1, 1.0]]

INTEGRATOR = {
    "rtol": 1e-10,
    "atol": 1e-12,
    "h0": 1e-3,
    "t_max": 50.0,
    "grad_tol": 1e-8,
    "max_steps": 1_000_000,
    "record_stride": 10,
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "cost": {"kind": "matrix_quadratic", "target": TARGET},
        "net": {"n": 2, "k": 3, "depth": 2},
        "init": {"mode": "random", "seed": 3, "scale": 0.5},
        "integrator": dict(INTEGRATOR),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# simulate


def test_simulate_writes_a_decreasing_trajectory(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    data = read_trajectory_csv(str(out))
    assert data["t"][0] == 0.0
    assert np.all(np.diff(data["cost"]) <= 1e-11)
    assert data["grad_g_norm"][-1] < 1e-8


def test_the_readme_run_configuration_is_valid(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("A run configuration is one JSON file", 1)[1]
    (tmp_path / "run.json").write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    samples = int(re.search(r"this example writes\s+(\d+)\s+samples", section).group(1))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"{samples} samples to ")
    assert len(read_trajectory_csv(str(out))["t"]) == samples
    example = re.search(r"```text\n(.*?)\n```", section, re.S).group(1)
    assert printed.split(" steps=")[1] == example.split(" steps=")[1] + "\n"


@pytest.mark.parametrize("baseline", [False, True], ids=["factored", "baseline"])
def test_simulate_prints_the_solver_counts(tmp_path, capsys, baseline):
    cfg = write_config(tmp_path, integrator=dict(INTEGRATOR, h0=1.0))  # a first step too long to keep
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)] + ["--baseline"] * baseline) == 0
    config = load_config(cfg)
    stack0 = build_initial_stack(config)
    if baseline:
        traj = integrate_baseline(product(stack0.layers), config.cost, config.integrator)
    else:
        traj = integrate(stack0, config.cost, config.integrator)
    want = f"steps={traj.n_steps} nfev={traj.nfev} rejected={traj.n_rejected} forced={traj.n_forced}"
    assert capsys.readouterr().out.rstrip("\n").endswith(" " + want)
    assert traj.n_rejected > 0  # every count is exercised


def test_simulate_baseline_flag(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "base.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--baseline"]) == 0
    data = read_trajectory_csv(str(out))
    assert data["cost"][-1] < 1e-12


def test_simulate_divergence_exits_2_with_partial_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        cost={"kind": "scalar_expr", "expr": "-(w^2)"},
        net={"n": 1, "k": 2, "depth": 2},
        init={"mode": "random", "seed": 1, "scale": 1.5},
        integrator=dict(INTEGRATOR, rtol=1e-6, atol=1e-9, record_stride=100),
    )
    out = tmp_path / "diverge.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert out.exists()
    data = read_trajectory_csv(str(out))
    assert len(data["t"]) >= 2  # the finite prefix was kept


def test_simulate_anti_balanced_start_stalls_at_the_spurious_point(tmp_path):
    cfg = write_config(
        tmp_path,
        cost={"kind": "scalar_expr", "expr": "(1 - w)^2", "min_value": 0.0},
        net={"n": 1, "k": 3, "depth": 2},
        init={"mode": "anti_balanced", "seed": 7, "scale": 0.5},
    )
    out = tmp_path / "anti.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    data = read_trajectory_csv(str(out))
    assert data["cost"][-1] == pytest.approx(1.0, abs=1e-6)  # f(0)
    assert data["grad_f_norm"][-1] > 1e-3


def test_simulate_pair_rescale_keeps_its_imbalance(tmp_path):
    cfg = write_config(
        tmp_path,
        cost={"kind": "scalar_expr", "expr": "(1 - w)^2", "min_value": 0.0},
        net={"n": 1, "k": 3, "depth": 2},
        init={"mode": "pair_rescale", "seed": 2, "scale": 0.5, "eta": 2.0},
    )
    out = tmp_path / "rescaled.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    data = read_trajectory_csv(str(out))
    c = data["imbalance_c"]
    assert abs(c[0]) > 1e-3
    assert abs(c[-1] - c[0]) < 1e-8


# config validation


def test_unknown_config_key_is_a_usage_error(tmp_path):
    cfg = write_config(tmp_path, extra=1)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1


def test_missing_integrator_key_is_a_usage_error(tmp_path):
    broken = dict(INTEGRATOR)
    del broken["grad_tol"]
    cfg = write_config(tmp_path, integrator=broken)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1


def test_the_retired_rk45_method_is_a_usage_error(tmp_path, capsys):
    # DOP853 is the only integrator, so the method key is gone whatever it names
    for method in ("rk45", "rk4", "dop853"):
        cfg = write_config(tmp_path, integrator=dict(INTEGRATOR, method=method))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: unknown keys ['method'] in config.integrator\n"
    assert not (tmp_path / "x.csv").exists()


def test_missing_config_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 1


def test_depth_one_config_is_rejected(tmp_path):
    cfg = write_config(tmp_path, net={"n": 2, "k": 2, "depth": 1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1


def test_no_arguments_is_a_usage_error():
    assert main([]) == 1


def test_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "ovflow.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


# inputs that once hung or ended in a traceback; each case ends with the
# flag that takes the output path
BAD_INPUTS = {
    "dichotomy_k0": ["dichotomy", "--expr", "(1 - w)^2", "--k", "0", "--out"],
    "dichotomy_negative_runs": ["dichotomy", "--expr", "(1 - w)^2", "--runs", "-1", "--out"],
    "fig2_grid1": ["recipe-fig2", "--grid", "1", "--outdir"],
    "accelerate_inf": ["accelerate", "--expr", "(1 - w)^2", "--z0", "0.5", "--c-low", "0", "--c-high", "inf", "--out"],
    "portrait_inf": ["phase-portrait", "--bounds=-inf:inf:-1:1", "--svg"],
    # a 2e11-point checkpoint grid, refused before it is allocated
    "accelerate_t_max_1e9": [
        "accelerate", "--expr", "(1 - w)^2", "--z0", "0.5", "--c-low", "0", "--c-high", "1", "--t-max", "1e9", "--out",
    ],
    # an exponent literal past the float range
    "dichotomy_w_pow_1e400": ["dichotomy", "--expr", "w^1e400", "--out"],
    # the high-c run leaves the float range on its first step, so the race shares only t = 0
    "accelerate_no_shared_sample": [
        "accelerate", "--expr", "(1 - w)^2", "--z0", "0.5", "--c-low", "0", "--c-high", "1e30", "--t-max", "1", "--out",
    ],
    "dichotomy_negative_seed": ["dichotomy", "--expr", "(1 - w)^2", "--min-value", "0", "--seed", "-1", "--out"],
}


def _run_to_one_error_line(argv) -> str:
    # a separate process with a timeout, so that an input that hangs fails the test
    proc = subprocess.run([sys.executable, "-m", "ovflow.cli", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    # one line: no traceback and no warning
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    return proc.stderr


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_1_with_a_message(tmp_path, case):
    _run_to_one_error_line([*BAD_INPUTS[case], str(tmp_path / "out")])
    assert list(tmp_path.iterdir()) == []


def test_a_negative_seed_is_named_in_the_error(tmp_path, capsys):
    assert main([*BAD_INPUTS["dichotomy_negative_seed"], str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"


# the same for inputs that need a config file: each case gives the config's
# overrides, the arguments before --config and a piece of the message
BAD_CONFIG_INPUTS = {
    "sweep_negative_runs": ({}, ["sweep", "--runs", "-3"], "run count must be nonnegative, got -3"),
    "scale_beyond_float": (
        {"init": {"mode": "random", "seed": 3, "scale": 10**400}}, ["simulate"], "config.init.scale is too large",
    ),
    "rtol_beyond_float": (
        {"integrator": dict(INTEGRATOR, rtol=10**400)}, ["simulate"], "config.integrator.rtol is too large",
    ),
    "pair_rescale_eta_zero": (
        {"init": {"mode": "pair_rescale", "seed": 3, "scale": 0.5, "eta": 0}}, ["simulate"],
        "eta must be finite and nonzero",
    ),
    # the second layer, divided by eta, overflows
    "pair_rescale_eta_tiny": (
        {"init": {"mode": "pair_rescale", "seed": 3, "scale": 0.5, "eta": 1e-320}}, ["simulate"],
        "layer 2 contains non-finite entries",
    ),
    "anti_balanced_negative_seed": (
        {
            "cost": {"kind": "scalar_expr", "expr": "(1 - w)^2", "min_value": 0.0},
            "net": {"n": 1, "k": 3, "depth": 2},
            "init": {"mode": "anti_balanced", "seed": -1, "scale": 0.5},
        },
        ["simulate"],
        "config.init.seed must be nonnegative, got -1",
    ),
    "sweep_negative_seed": (
        {"init": {"mode": "random", "seed": -1, "scale": 0.5}}, ["sweep", "--runs", "3"],
        "config.init.seed must be nonnegative, got -1",
    ),
}


@pytest.mark.parametrize("case", BAD_CONFIG_INPUTS)
def test_bad_config_input_exits_1_with_a_message(tmp_path, case):
    overrides, argv, message = BAD_CONFIG_INPUTS[case]
    cfg = write_config(tmp_path, **overrides)
    assert message in _run_to_one_error_line([*argv, "--config", cfg, "--out", str(tmp_path / "out")])
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_config_integer_of_too_many_digits_is_a_usage_error(tmp_path, capsys):
    # json refuses to convert an integer string past Python's digit limit
    cfg = Path(write_config(tmp_path))
    cfg.write_text(cfg.read_text().replace('"seed": 3', '"seed": ' + "9" * 5000))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# sweep


def test_sweep_labels_every_seed(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--runs", "6"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed,label,grad_f_norm,grad_g_norm,note"
    assert len(lines) == 7
    assert all(line.split(",")[1] == "critical_of_f" for line in lines[1:])


def test_sweep_requires_random_init(tmp_path):
    cfg = write_config(tmp_path, init={"mode": "balanced", "seed": 0, "scale": 0.5})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 1


# accelerate / dichotomy


def test_accelerate_reports_a_positive_margin(tmp_path):
    out = tmp_path / "race.csv"
    collapse = tmp_path / "collapse.csv"
    code = main([
        "accelerate", "--expr", "(1 - w)^2", "--z0", "0.5",
        "--c-low", "0.0", "--c-high", "4.0", "--t-max", "1.0",
        "--min-value", "0.0", "--out", str(out), "--collapse-out", str(collapse),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    assert rows[0] == ["t", "cost_low_c", "cost_high_c", "margin"]
    assert all(float(r[3]) > 0.0 for r in rows[2:])
    assert collapse.read_text().startswith("tau,z_low_c,z_high_c")


def test_accelerate_rejects_critical_start(tmp_path):
    code = main([
        "accelerate", "--expr", "(1 - w)^2", "--z0", "1.0",
        "--c-low", "0.0", "--c-high", "4.0", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


@pytest.mark.parametrize("t_max", ["0", "-1"])
def test_accelerate_bad_t_max_is_a_usage_error(tmp_path, capsys, t_max):
    code = main([
        "accelerate", "--expr", "(1 - w)^2", "--z0", "0.5", "--c-low", "0", "--c-high", "9",
        "--t-max", t_max, "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 1
    assert "error: t_max must be a positive finite number" in capsys.readouterr().err


def test_dichotomy_battery(tmp_path):
    out = tmp_path / "runs.csv"
    code = main([
        "dichotomy", "--expr", "(1 - w)^2", "--min-value", "0.0",
        "--k", "2", "--runs", "4", "--anti", "2", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,d0,D0,final_cost,final_state_norm,label"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds.count("generic") == 4 and kinds.count("anti_balanced") == 2


def test_dichotomy_rejects_nondominated_cost(tmp_path):
    code = main([
        "dichotomy", "--expr", "(w^2 - 1)^2", "--min-value", "0.0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_dichotomy_rejects_a_degenerate_critical_point(tmp_path, capsys):
    code = main(["dichotomy", "--expr", "(w - 0.005)^3 + 30", "--k", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "fails the gradient-dominance scan" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("t_max", ["0", "-1"])
def test_dichotomy_bad_t_max_is_a_usage_error(tmp_path, capsys, t_max):
    code = main(["dichotomy", "--expr", "(1 - w)^2", "--t-max", t_max, "--out", str(tmp_path / "f.csv")])
    assert code == 1
    assert "error: t_max must be a positive finite number" in capsys.readouterr().err


# saddle certification


def test_saddle_certify_the_origin(tmp_path):
    cfg = write_config(tmp_path, cost={"kind": "matrix_quadratic", "target": [[3.0, 0.0], [0.0, 1.0]]})
    out = tmp_path / "cert.csv"
    assert main(["saddle-certify", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "curvature,q_bar,min_eig,is_strict_saddle"
    assert lines[1].endswith("true")
    assert (tmp_path / "cert_direction.csv").exists()


def test_saddle_certify_writes_the_direction_beside_the_certificate(tmp_path, monkeypatch):
    # a dot in a directory name is not the certificate's extension
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    assert main(["saddle-certify", "--config", cfg, "--out", "runs.v2/cert"]) == 0
    assert sorted(p.name for p in (tmp_path / "runs.v2").iterdir()) == ["cert", "cert_direction.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "runs.v2"]


def test_saddle_certify_rejects_a_minimizer(tmp_path):
    from ovflow.cost import QuadraticMatrixCost
    from ovflow.linnet import NetShape, balanced_init, write_stack_csv

    cfg = write_config(tmp_path)
    stack = balanced_init(np.array(TARGET), NetShape(2, 3, 2), seed=0)
    stack_path = tmp_path / "minimum.csv"
    write_stack_csv(stack, str(stack_path))
    code = main([
        "saddle-certify", "--config", cfg, "--out", str(tmp_path / "c.csv"),
        "--stack", str(stack_path),
    ])
    assert code == 3


def test_saddle_certify_rejects_a_malformed_stack(tmp_path, capsys):
    stack_path = tmp_path / "bad.csv"
    stack_path.write_text("layer,row,col,value\n1,0,0,0.5\n1,0,1\n")  # a short row
    code = main([
        "saddle-certify", "--config", write_config(tmp_path), "--out", str(tmp_path / "c.csv"),
        "--stack", str(stack_path),
    ])
    assert code == 1
    assert "cannot load stack" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(1, 2, 2), (2, 3, 3)], ids=["two_layer_n1", "depth3"])
def test_saddle_certify_rejects_a_stack_of_another_shape(tmp_path, capsys, shape):
    from ovflow.linnet import NetShape, random_init, write_stack_csv

    stack_path = tmp_path / "other.csv"
    write_stack_csv(random_init(NetShape(*shape), seed=0, scale=0.5), str(stack_path))
    code = main([
        "saddle-certify", "--config", write_config(tmp_path), "--out", str(tmp_path / "c.csv"),
        "--stack", str(stack_path),
    ])
    assert code == 1
    assert "but config.net is" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


# invariant check


def test_invariant_check_reports_tiny_drift(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "inv.csv"
    assert main(["invariant-check", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "drift,max_norm_chain_residual,stop_reason"
    drift_value, residual, reason = row.split(",")
    assert float(drift_value) < 1e-8
    assert float(residual) < 1e-8
    assert reason == "converged"


# portraits


def test_phase_portrait_outputs(tmp_path):
    svg = tmp_path / "p.svg"
    field = tmp_path / "f.csv"
    overlays = tmp_path / "o.csv"
    code = main([
        "phase-portrait", "--kind", "sigmoid", "--grid", "5",
        "--out", str(field), "--overlays-out", str(overlays), "--svg", str(svg),
    ])
    assert code == 0
    text = svg.read_text()
    assert text.count('class="arrow"') == 25
    assert 'class="target-curve"' in text
    assert 'class="manifold-curve"' in text
    assert field.read_text().startswith("w1,w2,dw1,dw2")
    assert overlays.read_text().startswith("w1,w2,curve_id")


def test_phase_portrait_svg_is_deterministic(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        assert main(["phase-portrait", "--kind", "linear", "--grid", "7", "--svg", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind", ["linear", "sigmoid"])
def test_portrait_svg_matches_the_per_arrow_writer(tmp_path, kind):
    # both fields vanish at the origin, and the linear one also at the six
    # grid points on w1 w2 = 1: zero-length arrows among the others
    portrait = phase_portrait((-3.0, 3.0, -3.0, 3.0), 25, include_manifolds=True, kind=kind)
    write_portrait_svg(portrait, str(tmp_path / "bulk.svg"))
    write_portrait_svg_per_arrow(portrait, str(tmp_path / "oracle.svg"))
    bulk = (tmp_path / "bulk.svg").read_bytes()
    assert bulk == (tmp_path / "oracle.svg").read_bytes()
    dots = re.findall(rb'd="M ([-\d.]+ [-\d.]+) L \1"', bulk)
    assert len(dots) == {"linear": 7, "sigmoid": 1}[kind] and bulk.count(b'class="arrow"') == 625


def test_phase_portrait_no_manifolds(tmp_path):
    svg = tmp_path / "bare.svg"
    code = main([
        "phase-portrait", "--kind", "linear", "--grid", "4",
        "--svg", str(svg), "--no-manifolds",
    ])
    assert code == 0
    assert 'class="manifold-curve"' not in svg.read_text()


def test_phase_portrait_requires_an_output():
    assert main(["phase-portrait", "--kind", "sigmoid", "--grid", "4"]) == 1


def test_phase_portrait_bad_bounds(tmp_path):
    code = main([
        "phase-portrait", "--kind", "sigmoid", "--grid", "4",
        "--bounds", "3:-3", "--svg", str(tmp_path / "x.svg"),
    ])
    assert code == 1


def test_unwritable_output_exits_2():
    code = main(["phase-portrait", "--kind", "sigmoid", "--grid", "4",
                 "--svg", "/nonexistent-dir/x.svg"])
    assert code == 2


# parse-cost


def test_parse_cost_prints_derivatives(capsys):
    assert main(["parse-cost", "--expr", "(1 - w)^2", "--at", "0.0"]) == 0
    out = capsys.readouterr().out
    assert "f(w)" in out and "f'(w)" in out and "f''(w)" in out
    assert "f = 1" in out and "f' = -2" in out and "f'' = 2" in out


def test_parse_cost_division_note(capsys):
    assert main(["parse-cost", "--expr", "1 / (1 + w^2)"]) == 0
    assert "division" in capsys.readouterr().err


def test_parse_cost_unfoldable_constant_power(capsys):
    assert main(["parse-cost", "--expr", "0^-1 + w", "--at", "1"]) == 0
    assert "f = inf" in capsys.readouterr().out


def test_parse_cost_bad_expression(capsys):
    assert main(["parse-cost", "--expr", "(1 - w"]) == 1
    assert "position" in capsys.readouterr().err


# console script


def _console_script():
    """The callable that pyproject.toml's [project.scripts] entry names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1]
    module, attr = re.search(r'^ovflow = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("argv, status", [
    (["parse-cost", "--expr", "(1 - w)^2", "--at", "0.5"], 0),
    (["accelerate", "--expr", "(1 - w)^2", "--z0", "0.5", "--c-low", "0", "--c-high", "9",
      "--t-max", "0", "--out", "r.csv"], 1),
])
def test_console_script_exits_with_mains_status(tmp_path, monkeypatch, capsys, argv, status):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["ovflow"] + argv)
    entry = _console_script()
    assert entry is console_main
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == status
    assert ("f' = -1" in capsys.readouterr().out) == (status == 0)


# figure recipe


def test_recipe_fig2_builds_all_four_files(tmp_path):
    outdir = tmp_path / "fig"
    assert main(["recipe-fig2", "--outdir", str(outdir), "--grid", "7"]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "fig2_linear.csv", "fig2_linear.svg",
        "fig2_sigmoid.csv", "fig2_sigmoid.svg",
    ]
    other = tmp_path / "fig_again"
    assert main(["recipe-fig2", "--outdir", str(other), "--grid", "7"]) == 0
    assert (outdir / "fig2_sigmoid.svg").read_bytes() == (other / "fig2_sigmoid.svg").read_bytes()
