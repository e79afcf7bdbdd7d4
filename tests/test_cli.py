"""Command-line behavior: exit codes, file outputs, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ovflow.cli import main
from ovflow.flow import read_trajectory_csv

TARGET = [[2.0, 0.3], [-0.1, 1.0]]

INTEGRATOR = {
    "method": "rk45",
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


# saddle certification


def test_saddle_certify_the_origin(tmp_path):
    cfg = write_config(tmp_path, cost={"kind": "matrix_quadratic", "target": [[3.0, 0.0], [0.0, 1.0]]})
    out = tmp_path / "cert.csv"
    assert main(["saddle-certify", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "curvature,q_bar,min_eig,is_strict_saddle"
    assert lines[1].endswith("true")
    assert (tmp_path / "cert_direction.csv").exists()


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


def test_parse_cost_bad_expression(capsys):
    assert main(["parse-cost", "--expr", "(1 - w"]) == 1
    assert "position" in capsys.readouterr().err


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
