"""Every output CSV is written in one format: comma-separated, ``\\n`` line
endings, floats with 17 significant digits that parse back to the same
doubles."""

import csv
import json
import math

import numpy as np

from ovflow.cli import main
from ovflow.csvio import write_csv
from ovflow.sigmoid import phase_portrait, write_overlays_csv, write_portrait_csv

CONFIG = {
    "cost": {"kind": "matrix_quadratic", "target": [[2.0, 0.3], [-0.1, 1.0]]},
    "net": {"n": 2, "k": 3, "depth": 2},
    "init": {"mode": "random", "seed": 3, "scale": 0.5},
    "integrator": {"rtol": 1e-10, "atol": 1e-12, "h0": 1e-3, "t_max": 50.0,
                   "grad_tol": 1e-8, "max_steps": 1_000_000, "record_stride": 10},
}


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_write_csv_formats_floats_and_passes_other_cells(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b", "c", "d", "e"], [[0.1, np.float64(1 / 3), 7, "x", ""], [float("inf"), -0.0, 0, "y", ""]])
    assert path.read_bytes() == b"a,b,c,d,e\n0.10000000000000001,0.33333333333333331,7,x,\ninf,-0,0,y,\n"


def test_a_float_table_is_written_as_the_csv_route_writes_its_rows(tmp_path):
    # more rows than one chunk, the edge doubles, and a blank column in the middle
    edges = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3]
    rng = np.random.default_rng(2)
    table = np.concatenate([np.array(edges * 4).reshape(-1, 4), rng.standard_normal((700, 4)) * 10.0 ** rng.integers(-300, 300, (700, 4))])
    header = ["a", "b", "blank", "c", "d"]
    write_csv(str(tmp_path / "table.csv"), header, table, blank=(2,))
    rows = [row[:2] + [""] + row[2:] for row in table.tolist()]
    write_csv(str(tmp_path / "rows.csv"), header, rows)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    write_csv(str(tmp_path / "full.csv"), header[:4], table)
    write_csv(str(tmp_path / "full_rows.csv"), header[:4], table.tolist())
    assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "full_rows.csv").read_bytes()


def test_every_writer_uses_one_format(tmp_path):
    cfg = str(tmp_path / "cfg.json")
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))
    out = {name: str(tmp_path / f"{name}.csv") for name in (
        "traj", "sweep", "race", "collapse", "fates", "cert", "drift", "field", "curves")}
    commands = [
        ["simulate", "--config", cfg, "--out", out["traj"]],
        ["sweep", "--config", cfg, "--out", out["sweep"], "--runs", "3"],
        ["accelerate", "--expr", "(1 - w)^2", "--min-value", "0", "--z0", "0.5", "--c-low", "0",
         "--c-high", "9", "--out", out["race"], "--collapse-out", out["collapse"]],
        ["dichotomy", "--expr", "(1 - w)^2", "--min-value", "0", "--runs", "3", "--anti", "2", "--out", out["fates"]],
        ["saddle-certify", "--config", cfg, "--out", out["cert"]],
        ["invariant-check", "--config", cfg, "--out", out["drift"]],
        ["phase-portrait", "--grid", "5", "--out", out["field"], "--overlays-out", out["curves"]],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    paths = list(out.values()) + [str(tmp_path / "cert_direction.csv")]
    assert len(paths) == 10
    for path in paths:
        with open(path, "rb") as handle:
            data = handle.read()
        assert b"\r" not in data and data.endswith(b"\n"), path
        rows = _rows(path)
        assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows), path
        for row in rows[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert f"{value:.17g}" == cell, (path, cell)


def test_portrait_cells_parse_back_to_the_written_doubles(tmp_path):
    # the trajectory and stack writers have their own round-trip tests
    portrait = phase_portrait((-3.0, 3.0, -3.0, 3.0), 7, kind="sigmoid")
    write_portrait_csv(portrait, str(tmp_path / "field.csv"))
    field = np.array([[float(cell) for cell in row] for row in _rows(tmp_path / "field.csv")[1:]])
    assert np.array_equal(field, np.column_stack([portrait.w1, portrait.w2, portrait.dw1, portrait.dw2]))
    write_overlays_csv(portrait, str(tmp_path / "curves.csv"))
    curves = _rows(tmp_path / "curves.csv")[1:]
    assert [row[2] for row in curves] == [cid for cid, line in portrait.overlays for _ in line]
    points = np.array([[float(row[0]), float(row[1])] for row in curves])
    assert np.array_equal(points, np.concatenate([line for _, line in portrait.overlays]))
