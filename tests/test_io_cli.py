"""Result tables, CSV/JSON round trips, and the command line surface."""

import dataclasses
import json
import math

import pytest

from cavityspin import io, jcmodel, linalg, spinmodel
from cavityspin.cli import main


def test_format_cell_rules():
    assert io.format_cell(None) == ""
    assert io.format_cell(42) == "42"
    assert io.format_cell(-3) == "-3"
    assert io.format_cell("true") == "true"
    assert io.format_cell(0.1) == format(0.1, ".17g")
    with pytest.raises(TypeError):
        io.format_cell(True)
    with pytest.raises(ValueError):
        io.format_cell(float("nan"))
    with pytest.raises(ValueError):
        io.format_cell(math.inf)
    with pytest.raises(TypeError):
        io.format_cell([1, 2])


def test_parse_cell_inverse():
    for v in (None, 0, 7, -12, 0.1, -2.5e-300, 1.0 / 3.0, "label", "true"):
        assert io.parse_cell(io.format_cell(v)) == v
    assert io.parse_cell("+7") == 7
    assert isinstance(io.parse_cell("3.0"), float)
    with pytest.raises(ValueError):
        io.parse_cell("nan")
    with pytest.raises(ValueError):
        io.parse_cell("inf")


def test_float_cells_roundtrip_exactly():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(200):
        v = float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
        assert io.parse_cell(io.format_cell(v)) == v


def test_result_table_validation_and_equality():
    t1 = io.ResultTable(columns=("a", "b"), rows=[(1, 2.5), (None, "x")])
    t2 = io.ResultTable(
        columns=("a", "b"), rows=[(1, 2.5), (None, "x")], metadata={"k": 1}
    )
    assert t1 == t2  # metadata is out of band
    with pytest.raises(ValueError):
        io.ResultTable(columns=("a",), rows=[(1, 2)])


def test_csv_roundtrip():
    table = io.ResultTable(
        columns=("n", "energy", "flag"),
        rows=[(0, -1.25, "true"), (3, 0.1, None)],
    )
    text = io.to_csv(table)
    assert "\r" not in text
    assert text.endswith("\n")
    assert io.parse_csv(text) == table
    with pytest.raises(ValueError):
        io.parse_csv("")


def test_json_emission():
    table = io.ResultTable(columns=("a",), rows=[(1.5,)], metadata={"z": 1, "a": 2})
    doc = json.loads(io.to_json(table))
    assert doc["columns"] == ["a"]
    assert doc["rows"] == [[1.5]]
    assert doc["metadata"] == {"z": 1, "a": 2}
    bad = io.ResultTable(columns=("a",), rows=[(float("nan"),)])
    with pytest.raises(ValueError):
        io.to_json(bad)


def test_config_hash_canonicalization():
    h1 = io.config_hash({"a": 1, "b": [1, 2]})
    h2 = io.config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert io.config_hash({"a": 2, "b": [1, 2]}) != h1


def test_write_outputs_sidecar(tmp_path):
    table = io.ResultTable(
        columns=("x",), rows=[(1,)], metadata=io.make_metadata("cmd", {"p": 1}, 0.5)
    )
    out = tmp_path / "t.csv"
    io.write_outputs(table, str(out))
    sidecar = json.loads((tmp_path / "t.csv.json").read_text())
    assert sidecar["columns"] == ["x"]
    assert sidecar["n_rows"] == 1
    assert sidecar["artifact_version"] == io.ARTIFACT_VERSION
    assert sidecar["config_hash"] == io.config_hash({"p": 1})
    assert out.read_text() == io.to_csv(table)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_polya_plaquette_counts(capsys):
    code, out, err = run_cli(capsys, ["polya", "--lx", "2", "--ly", "2"])
    assert code == 0 and err == ""
    table = io.parse_csv(out)
    assert table.columns == ("n_exc", "n_classes", "class_sizes", "stabilizer_orders")
    assert [r[1] for r in table.rows] == [1, 1, 2, 1, 1]


def test_cli_units_scaling(capsys):
    base = [
        "derive-params",
        "--g0", "0.02", "--rabi", "2.0", "--delta-e", "40.0",
        "--delta-a", "12.0", "--eta", "-3.0",
    ]
    code, raw_out, _ = run_cli(capsys, base + ["--units", "raw"])
    assert code == 0
    code, om_out, _ = run_cli(capsys, base + ["--units", "omega"])
    assert code == 0
    raw = io.parse_csv(raw_out)
    om = io.parse_csv(om_out)
    i_omega = raw.columns.index("omega_at")
    i_lam = raw.columns.index("lambda_a")
    unit = raw.rows[0][i_omega]
    assert om.rows[0][i_omega] == pytest.approx(1.0)
    assert om.rows[0][i_lam] == pytest.approx(raw.rows[0][i_lam] / unit, rel=1e-12)
    # dimensionless columns must not be scaled
    i_eta = raw.columns.index("eta")
    assert om.rows[0][i_eta] == raw.rows[0][i_eta]


def test_cli_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lx": 2, "ly": 2, "delta": 10.0, "omega": 1.0}))
    code, out, _ = run_cli(capsys, ["meanfield", "--config", str(cfg)])
    assert code == 0
    gc_cfg = io.parse_csv(out).rows[0]
    code, out, _ = run_cli(
        capsys, ["meanfield", "--config", str(cfg), "--delta", "40.0"]
    )
    assert code == 0
    gc_over = io.parse_csv(out).rows[0]
    cols = io.parse_csv(out).columns
    i = cols.index("g_c")
    assert gc_over[i] == pytest.approx(2.0 * gc_cfg[i], rel=1e-12)


def test_cli_usage_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, ["meanfield", "--lx", "2", "--ly", "2"])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "usage"
    # spin level requires exactly one coupling entry point
    code, _, err = run_cli(
        capsys,
        ["spin-ed", "--lx", "2", "--ly", "2", "--omega", "1.0",
         "--lambda-a", "-0.1", "--g", "0.3", "--delta-a", "5", "--delta-b", "5"],
    )
    assert code == 2
    code, _, err = run_cli(capsys, ["frustration-scan", "--lx", "10",
                                    "--delta-a-ratios", "", "--etas=-3",
                                    "--ly-ratios", "1"])
    assert code == 2
    assert "empty sweep grid" in json.loads(err)["error"]["message"]


def test_cli_compute_errors_exit_1(capsys):
    code, out, err = run_cli(
        capsys,
        ["meanfield", "--lx", "2", "--ly", "2", "--delta", "-5.0", "--omega", "1.0"],
    )
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "compute"


def test_cli_solver_failure_is_compute_error(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("Lanczos found 0/1 pairs after 0 restarts")

    monkeypatch.setattr(linalg, "_lanczos_lowest", fail)
    # dim C(16, 8) = 12870 is past the dense cutoff, so Lanczos runs
    code, out, err = run_cli(
        capsys,
        ["spin-ed", "--lx", "4", "--ly", "4", "--omega", "1.0",
         "--lambda-a=-0.1", "--nexc", "8"],
    )
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "compute"
    assert payload["error"]["type"] == "RuntimeError"


@pytest.mark.parametrize(
    "module, argv",
    [
        (spinmodel, ["excitation-curve", "--lx", "2", "--ly", "2", "--omega", "1",
                     "--lambdas=-0.2"]),
        (spinmodel, ["crossover", "--lx", "2", "--ly", "2", "--omega", "1",
                     "--delta-ratios", "20"]),
        (jcmodel, ["crossover", "--lx", "2", "--ly", "2", "--omega", "1",
                   "--delta-ratios", "20"]),
        (spinmodel, ["spin-ed", "--lx", "2", "--ly", "2", "--omega", "1",
                     "--lambda-a=-0.2", "--nexc", "2"]),
        (jcmodel, ["jc-ed", "--lx", "2", "--ly", "2", "--omega", "1",
                   "--delta-a", "6", "--g", "0.4", "--ntotal", "1"]),
        (jcmodel, ["jc-ed", "--lx", "2", "--ly", "2", "--omega", "1",
                   "--delta-a", "6", "--g", "0.4"]),
        (spinmodel, ["correlations", "--lx", "2", "--ly", "2", "--omega", "1",
                     "--lambda-a=-0.2", "--nexc", "2"]),
    ],
)
def test_cli_unconverged_critical_coupling_is_compute_error(
    monkeypatch, capsys, module, argv
):
    solve = linalg.ground_state

    def unconverged(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), converged=False)

    monkeypatch.setattr(module, "ground_state", unconverged)
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "compute"
    assert payload["error"]["type"] == "ArithmeticError"


def test_cli_spin_ed_counts_the_frustrated_multiplet(capsys):
    # lambda_a > 0 > lambda_b on 3x3: the one-excitation ground level is
    # 2-fold (one_exc_closed_spectrum); the default k=1 must still count both
    code, out, _ = run_cli(
        capsys,
        ["spin-ed", "--lx", "3", "--ly", "3", "--lambda-a", "0.1",
         "--lambda-b=-0.3", "--omega", "1", "--nexc", "1"],
    )
    assert code == 0
    table = io.parse_csv(out)
    assert table.columns == ("n_exc", "dim", "energy", "multiplet_size")
    assert table.rows[0][3] == 2


def test_cli_excitation_curve_prints_unsigned_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        ["excitation-curve", "--lx", "2", "--ly", "2", "--omega", "0",
         "--lambdas", "0", "--units", "raw"],
    )
    assert code == 0
    assert out.splitlines()[1] == "0,0,0"


def test_cli_crossover_tol_is_a_no_op(tmp_path, capsys):
    base = [
        "crossover", "--lx", "2", "--ly", "2", "--omega", "1",
        "--delta-ratios", "20",
    ]
    outs = []
    for tag, extra in (("plain", []), ("tol", ["--tol", "1e-3"])):
        out = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(capsys, base + extra + ["--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    sides = [json.loads((tmp_path / f"{t}.csv.json").read_text()) for t in ("plain", "tol")]
    assert "tol" not in sides[0]["config"]
    assert sides[0]["config_hash"] == sides[1]["config_hash"]
    code, _, err = run_cli(capsys, base + ["--tol", "fine"])
    assert code == 2 and json.loads(err)["error"]["kind"] == "usage"


def test_cli_io_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["polya", "--lx", "2", "--ly", "2", "--out",
         str(tmp_path / "missing" / "t.csv")],
    )
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "io"


def test_cli_outputs_deterministic(tmp_path, capsys):
    argv = [
        "spin-ed", "--lx", "2", "--ly", "3", "--omega", "1.0",
        "--lambda-a", "-0.11", "--lambda-b", "-0.07", "--nexc", "0,1,2", "--k", "2",
    ]
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(capsys, argv + ["--out", str(out)])
        assert code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    side_a = json.loads((tmp_path / "a.csv.json").read_text())
    side_b = json.loads((tmp_path / "b.csv.json").read_text())
    assert side_a["config_hash"] == side_b["config_hash"]
    assert side_a["columns"] == side_b["columns"]


def test_cli_scan_workers_do_not_change_bytes(tmp_path, capsys):
    base = [
        "frustration-scan", "--lx", "10", "--delta-a-ratios", "0.4,0.6",
        "--etas=-3,-5", "--ly-ratios", "1,3", "--omega", "1.0",
    ]
    outs = []
    for tag, workers in (("w1", "1"), ("w4", "4")):
        out = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(capsys, base + ["--workers", workers, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    side = json.loads((tmp_path / "w1.csv.json").read_text())
    assert "workers" not in json.dumps(side["config"])


def test_cli_analytic_table_mode(capsys):
    code, out, _ = run_cli(capsys, ["analytic-1d"])
    assert code == 0
    table = io.parse_csv(out)
    assert table.n_rows == 6
    outcomes = {r[table.columns.index("outcome")] for r in table.rows}
    assert outcomes == {"no-transition", "photon-divergence", "spin-transition-series"}


def test_cli_seed_changes_nothing_semantic(capsys):
    argv = [
        "spin-ed", "--lx", "2", "--ly", "2", "--omega", "1.0",
        "--lambda-a", "-0.2", "--nexc", "2",
    ]
    _, out1, _ = run_cli(capsys, argv + ["--seed", "1"])
    _, out2, _ = run_cli(capsys, argv + ["--seed", "99"])
    t1, t2 = io.parse_csv(out1), io.parse_csv(out2)
    i = t1.columns.index("energy")
    assert t1.rows[0][i] == pytest.approx(t2.rows[0][i], abs=1e-11)
