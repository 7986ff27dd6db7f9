"""Result tables, CSV/JSON round trips, and the command line surface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cavityspin
from cavityspin import cli, io, jcmodel, linalg, spinmodel, symmetry
from cavityspin.cli import main
from cavityspin.geometry import ArrayGeometry


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
    # numpy scalars give the bytes of the equal Python number
    for value, text in (
        (np.int64(-7), "-7"),
        (np.int64(2**62), "4611686018427387904"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.float32(-3.5), "-3.5"),
    ):
        assert io.format_cell(value) == text
    for value in (np.bool_(True), Fraction(1, 3)):
        with pytest.raises(TypeError):
            io.format_cell(value)


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
    # bad geometry flags are usage errors too
    for argv, message in [
        (["polya", "--lx", "3", "--ly", "2", "--transpose"], "square array"),
        (["spin-ed", "--lx", "0", "--ly", "2", "--omega", "1.0",
          "--lambda-a", "-0.1"], "dimensions must be >= 1"),
        (["frustration-scan", "--lx", "0", "--delta-a-ratios", "1",
          "--etas=-3", "--ly-ratios", "1"], "dimensions must be >= 1"),
        # sectors are range-checked before any solve
        (["correlations", "--lx", "2", "--ly", "2", "--omega", "1",
          "--lambda-a=-0.1", "--nexc", "7"], "n_exc=7 outside [0, 4]"),
        (["correlations", "--lx", "2", "--ly", "2", "--omega", "1",
          "--lambda-a=-0.1", "--nexc=-1"], "n_exc=-1 outside [0, 4]"),
        (["spin-ed", "--lx", "2", "--ly", "2", "--omega", "1",
          "--lambda-a=-0.1", "--nexc", "2,5"], "n_exc=5 outside [0, 4]"),
        (["polya", "--lx", "2", "--ly", "2", "--nexc", "5"], "n_exc=5 outside"),
        (["jc-ed", "--lx", "2", "--ly", "2", "--omega", "1", "--delta-a", "6",
          "--g", "0.4", "--ntotal=-1"], "n_total=-1 outside"),
        # non-finite numbers are bad flags, single or in a grid
        (["meanfield", "--lx", "2", "--ly", "2", "--delta", "5", "--omega", "1",
          "--g=nan"], "bad value for --g"),
        (["analytic-1d", "--omega", "1", "--lam", "nan", "--delta", "2"],
         "bad value for --lam: nan is not finite"),
        (["spin-ed", "--lx", "2", "--ly", "2", "--omega", "inf",
          "--lambda-a=-0.1", "--nexc", "1"], "bad value for --omega: inf"),
        (["excitation-curve", "--lx", "2", "--ly", "2", "--omega", "1",
          "--lambdas=-0.1,-inf"], "bad value for --lambdas"),
        (["spin-ed", "--lx", "2", "--ly", "2", "--omega", "1",
          "--lambda-a=-0.1", "--nexc", "1,inf"], "bad value for --nexc"),
        # a closed-form chain needs at least one spin
        (["analytic-1d", "--omega", "1", "--lam=-0.1", "--delta", "2", "--n=-3"],
         "--n must be >= 1"),
        (["analytic-1d", "--omega", "1", "--lam=-0.1", "--delta", "2", "--n", "0"],
         "--n must be >= 1"),
        # the sign table has no spin count to use
        (["analytic-1d", "--n", "4"], "--n needs --omega, --lam and --delta"),
        # JC flags are range-checked where they are parsed
        (["jc-ed", "--lx", "2", "--ly", "2", "--omega", "1", "--delta-a", "6",
          "--g", "0.4", "--ntotal", "1", "--nmax=-1"], "--nmax must be >= 0"),
        (["crossover", "--lx", "2", "--ly", "2", "--omega", "1",
          "--delta-ratios", "20", "--nmax=-1"], "--nmax must be >= 0"),
        (["crossover", "--lx", "2", "--ly", "2", "--omega", "1",
          "--delta-ratios", "20", "--sectors", "0"], "--sectors must be >= 1"),
        (["jc-ed", "--lx", "2", "--ly", "2", "--omega", "1", "--delta-a", "6",
          "--g=-0.3", "--ntotal", "1"], "--g must be >= 0"),
        (["meanfield", "--lx", "3", "--ly", "3", "--delta", "2", "--omega", "1",
          "--g=0.1,-0.2"], "--g must be >= 0"),
        # the seed is checked before any solve, on a routed and a dense sector
        (["spin-ed", "--lx", "4", "--ly", "4", "--lambda-a", "0.1",
          "--lambda-b=-0.3", "--omega", "1", "--nexc", "5", "--seed=-1"],
         "--seed must be >= 0"),
        (["spin-ed", "--lx", "2", "--ly", "2", "--lambda-a", "0.1",
          "--lambda-b=-0.3", "--omega", "1", "--nexc", "1", "--seed=-1"],
         "--seed must be >= 0"),
    ]:
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        payload = json.loads(err)["error"]
        assert payload["kind"] == "usage" and message in payload["message"]


def test_cli_config_numbers_refuse_booleans_and_fractions(tmp_path, capsys):
    # JSON true is a Python int and 3.7 casts to 3: neither is a number
    # option, in a config file as on the command line
    cfg = tmp_path / "cfg.json"
    base = {"lx": 3, "ly": 1, "omega": 1.0, "lambda_a": -0.1, "nexc": [1]}
    cfg.write_text(json.dumps(base))
    assert run_cli(capsys, ["spin-ed", "--config", str(cfg)])[0] == 0
    for bad, message in [
        ({"lx": 3.7}, "bad value for --lx: 3.7 is not an integer"),
        ({"ly": True}, "bad value for --ly: True is not a number"),
        ({"omega": True}, "bad value for --omega: True is not a number"),
        ({"nexc": [True]}, "bad value for --nexc: True is not a number"),
        ({"seed": True}, "bad value for --seed: True is not a number"),
        # read through a float, a larger integer would silently change
        ({"seed": 2**53 + 1}, "bad value for --seed: 9007199254740992.0 is not an integer"),
    ]:
        cfg.write_text(json.dumps({**base, **bad}))
        code, out, err = run_cli(capsys, ["spin-ed", "--config", str(cfg)])
        assert code == 2 and out == "", bad
        payload = json.loads(err)["error"]
        assert payload["kind"] == "usage" and message in payload["message"]


@pytest.mark.parametrize("lx, ly, n_exc", [(2, 2, 1), (3, 2, 5), (6, 2, 9)])
def test_cli_round_off_sigma_nn_leaves_the_ratio_empty(capsys, lx, ly, n_exc):
    # row partners give -1/4 and column partners +1/4: sigma_nn is exactly 0,
    # so a round-off remainder must not be printed as a ratio
    code, out, _ = run_cli(
        capsys,
        ["correlations", "--lx", str(lx), "--ly", str(ly), "--omega", "1",
         "--lambda-a", "0.1", "--lambda-b=-0.3", "--nexc", str(n_exc)],
    )
    assert code == 0
    (row,) = io.parse_csv(out).rows
    assert abs(row[2]) <= 1e-12 and row[4] is None


def test_cli_compute_errors_exit_1(capsys):
    for argv in (
        ["meanfield", "--lx", "2", "--ly", "2", "--delta", "-5.0", "--omega", "1.0"],
        # base-3 photon keys of 40 modes at total 3 pass 2**63 - 1: refused,
        # not a silently wrong energy
        ["jc-ed", "--lx", "39", "--ly", "1", "--omega", "1", "--g", "0.3",
         "--delta-a", "5", "--delta-b", "5", "--ntotal", "3", "--nmax", "2"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"]["kind"] == "compute"


def test_cli_polya_reads_the_grown_levels_up_to_the_sector_guard(monkeypatch, capsys):
    # 6x6 n=7 (8 347 680 states) lists no member and enumerates no sector
    def refuse(*args, **kwargs):
        raise AssertionError("polya reached a sector table")

    for module, name in [
        (cavityspin.basis, "enumerate_masks"),
        (symmetry, "enumerate_masks"),
        (cavityspin.canonical, "code_classes"),
        (symmetry, "orbits"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(capsys, ["polya", "--lx", "6", "--ly", "6", "--nexc", "7"])
    assert code == 0 and err == ""
    ((n_exc, n_classes, sizes, _),) = io.parse_csv(out).rows
    assert (n_exc, n_classes) == (7, 99)
    assert sum(int(x) for x in sizes.split(";")) == math.comb(36, 7)
    # past the bitmask guard every spin-sector path has
    code, out, err = run_cli(capsys, ["polya", "--lx", "6", "--ly", "6", "--nexc", "8"])
    assert code == 1 and out == ""
    payload = json.loads(err)["error"]
    assert payload["kind"] == "compute"
    assert payload["message"] == "sector dimension 30260340 exceeds guard 20000000"


@pytest.mark.parametrize("lx, ly", [(6, 4), (5, 5)])
def test_cli_polya_counts_every_sector_past_the_member_listing_guard(capsys, lx, ly):
    # C(24, 12) = 2 704 156 and C(25, 12) = 5 200 300 states exceed the
    # 2e6-state member-listing guard of symmetry.orbits
    group = symmetry.build_group(ArrayGeometry(lx, ly))
    inventory = symmetry.cycle_index(group).pattern_inventory()
    code, out, err = run_cli(capsys, ["polya", "--lx", str(lx), "--ly", str(ly)])
    assert code == 0 and err == ""
    rows = io.parse_csv(out).rows
    assert [row[:2] for row in rows] == list(enumerate(inventory))
    for n_exc, _, sizes, stabilizers in rows:
        sizes = [int(x) for x in str(sizes).split(";")]
        stabilizers = [int(x) for x in str(stabilizers).split(";")]
        assert sum(sizes) == math.comb(lx * ly, n_exc)
        assert all(s * t == group.order for s, t in zip(sizes, stabilizers, strict=True))


POLYA_SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (6, 2), (2, 6), (4, 3), (5, 4),
                (4, 5), (5, 3), (7, 2), (17, 1), (1, 5), (3, 2)]


@pytest.mark.parametrize(
    "lx, ly, transpose",
    [(lx, ly, t) for lx, ly in POLYA_SHAPES
     for t in ([None, False, True] if lx == ly else [None, False])],
)
def test_cli_polya_cells_equal_the_member_tables(capsys, lx, ly, transpose):
    flag = {None: [], False: ["--no-transpose"], True: ["--transpose"]}[transpose]
    code, out, err = run_cli(capsys, ["polya", "--lx", str(lx), "--ly", str(ly), *flag])
    assert code == 0 and err == ""
    group = symmetry.build_group(ArrayGeometry(lx, ly), transpose)
    for n_exc, n_classes, sizes, stabilizers in io.parse_csv(out).rows:
        classes = symmetry.orbits(group, n_exc)
        assert n_classes == len(classes)
        assert str(sizes) == ";".join(str(len(c.members)) for c in classes)
        assert str(stabilizers) == ";".join(
            str(group.order // len(c.members)) for c in classes
        )


def test_cli_solver_failure_is_compute_error(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("Lanczos found 0/1 pairs after 0 restarts")

    monkeypatch.setattr(linalg, "_lanczos_lowest", fail)
    # dim C(16, 8) = 12870 is past the dense cutoff; frustrated couplings
    # keep the full sector, so Lanczos runs
    code, out, err = run_cli(
        capsys,
        ["spin-ed", "--lx", "4", "--ly", "4", "--omega", "1.0",
         "--lambda-a", "0.1", "--lambda-b=-0.3", "--nexc", "8"],
    )
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "compute"
    assert payload["error"]["type"] == "RuntimeError"


def test_cli_linalg_error_is_compute_error(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spinmodel, "sector_ground", fail)
    code, out, err = run_cli(
        capsys,
        ["spin-ed", "--lx", "2", "--ly", "2", "--omega", "1", "--lambda-a=-0.2",
         "--nexc", "1"],
    )
    assert code == 1 and out == ""
    assert "Traceback" not in err
    payload = json.loads(err)["error"]
    assert payload == {
        "kind": "compute",
        "type": "LinAlgError",
        "message": "Eigenvalues did not converge",
    }


def test_cli_memory_error_is_compute_error(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setitem(cli._HANDLERS, "frustration-scan", fail)
    code, out, err = run_cli(
        capsys,
        ["frustration-scan", "--lx", "4", "--delta-a-ratios", "0.5", "--etas=-3",
         "--ly-ratios", "1"],
    )
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == {
        "kind": "compute",
        "type": "MemoryError",
        "message": "Unable to allocate 74.5 GiB for an array",
    }


def test_cli_scan_of_a_huge_square_array_builds_no_mode_matrix(capsys):
    # a dense (Lx + Ly)^2 mode matrix at Lx = Ly = 100000 would need 320 GB;
    # the closed form needs none, and with Ly = Lx the ratio R does not
    # depend on Lx
    r = {}
    for lx in ("100000", "4"):
        code, out, err = run_cli(
            capsys,
            ["frustration-scan", "--lx", lx, "--delta-a-ratios", "0.5", "--etas=-3",
             "--ly-ratios", "1"],
        )
        assert code == 0 and err == ""
        (row,) = io.parse_csv(out).rows
        assert row[5] in ("true", "false")
        r[lx] = row[3]
    assert abs(r["100000"] - r["4"]) <= 1e-12 * abs(r["4"])


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
        # canonical.block_ground reads linalg.ground_state at call time
        # dim 12870, attractive: solved on the symmetric orbit block
        (linalg, ["correlations", "--lx", "4", "--ly", "4", "--omega", "1",
                  "--lambda-a=-0.1", "--nexc", "8"]),
        # dim 2016, scalar detunings: the JC symmetric orbit block
        (linalg, ["jc-ed", "--lx", "3", "--ly", "3", "--omega", "1", "--g", "0.4",
                  "--delta-a", "6", "--delta-b", "5.5", "--ntotal", "4"]),
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


def test_cli_runs_arrays_whose_group_order_passes_int64(capsys):
    # 21! > 2**63 - 1: one class of the 210 states of 21x1 n=2
    code, out, err = run_cli(capsys, ["polya", "--lx", "21", "--ly", "1", "--nexc", "2"])
    assert code == 0 and err == ""
    assert io.parse_csv(out).rows == [(2, 1, 210, 243290200817664000)]
    # dim 1330 takes the symmetric block; the line energy is closed form:
    # (omega/2 + 2 lambda)(2n - N) + 2 lambda n (N - n) = -15.3
    code, out, err = run_cli(
        capsys,
        ["spin-ed", "--lx", "21", "--ly", "1", "--lambda-a=-0.1", "--omega", "1",
         "--nexc", "3", "--units", "raw"],
    )
    assert code == 0 and err == ""
    (row,) = io.parse_csv(out).rows
    assert row[:2] == (3, 1330) and row[3] == 1
    assert row[2] == pytest.approx(-15.3, abs=1e-12)


def test_cli_solves_attractive_sectors_past_the_labelling_guard(capsys):
    # 6x4 n=12: 2 704 156 states, solved and correlated on their orbit classes
    argv = ["--lx", "6", "--ly", "4", "--lambda-a=-0.1", "--lambda-b=-0.05",
            "--omega", "1", "--nexc", "12"]
    code, out, err = run_cli(capsys, ["spin-ed", *argv])
    assert code == 0 and err == ""
    (row,) = io.parse_csv(out).rows
    assert row[:2] == (12, 2704156) and row[3] == 1
    code, out, err = run_cli(capsys, ["correlations", *argv])
    assert code == 0 and err == ""
    (row,) = io.parse_csv(out).rows
    assert row[:2] == ("spin", 12) and row[2] > 0.0 and row[3] > 0.0


def test_cli_spin_ed_counts_the_frustrated_multiplet(capsys):
    # lambda_a > 0 > lambda_b on 3x3: the one-excitation ground level is
    # 2-fold (one_exc_closed_spectrum); the one ground solve must count both
    code, out, _ = run_cli(
        capsys,
        ["spin-ed", "--lx", "3", "--ly", "3", "--lambda-a", "0.1",
         "--lambda-b=-0.3", "--omega", "1", "--nexc", "1"],
    )
    assert code == 0
    table = io.parse_csv(out)
    assert table.columns == ("n_exc", "dim", "energy", "multiplet_size")
    assert table.rows[0][3] == 2


@pytest.mark.parametrize("extra", [[], ["--k", "6"]])
def test_cli_spin_ed_counts_the_frustrated_multiplet_on_the_lanczos_path(capsys, extra):
    # dims 4368 and 8008 are past the dense cutoff; the levels are 3- and 2-fold
    code, out, _ = run_cli(
        capsys,
        ["spin-ed", "--lx", "4", "--ly", "4", "--lambda-a", "0.1",
         "--lambda-b=-0.3", "--omega", "1", "--nexc", "5,6", *extra],
    )
    assert code == 0
    table = io.parse_csv(out)
    assert [(r[1], r[3]) for r in table.rows] == [(4368, 3), (8008, 2)]


def test_cli_jc_ed_scan_builds_each_sector_basis_once(monkeypatch, capsys):
    built = []
    init = jcmodel.JCBasis.__init__

    def counting_init(self, geometry, n_total, n_max=None):
        built.append(n_total)
        init(self, geometry, n_total, n_max)

    monkeypatch.setattr(jcmodel.JCBasis, "__init__", counting_init)
    code, out, _ = run_cli(
        capsys,
        ["jc-ed", "--lx", "2", "--ly", "2", "--omega", "1", "--delta-a", "6",
         "--delta-b", "6", "--g", "0.4"],
    )
    assert code == 0
    assert sorted(built) == [0, 1, 2, 3, 4]
    assert [r[0] for r in io.parse_csv(out).rows] == [0, 1, 2, 3, 4]


def test_cli_excitation_curve_prints_unsigned_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        ["excitation-curve", "--lx", "2", "--ly", "2", "--omega", "0",
         "--lambdas", "0", "--units", "raw"],
    )
    assert code == 0
    assert out.splitlines()[1] == "0,0,0"


@pytest.mark.parametrize("command", ["spin-ed", "correlations"])
def test_cli_k_is_a_no_op(tmp_path, capsys, command):
    # 4x3 n=5 (dim 792) takes the Lanczos path; every solve returns the
    # whole ground cluster, so asking for more pairs changes nothing
    base = [
        command, "--lx", "4", "--ly", "3", "--omega", "1",
        "--lambda-a", "0.1", "--lambda-b=-0.3", "--nexc", "2,5",
    ]
    outs = []
    for tag, extra in (("plain", []), ("k1", ["--k", "1"]), ("k8", ["--k", "8"])):
        out = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(capsys, base + extra + ["--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    sides = [json.loads((tmp_path / f"{t}.csv.json").read_text()) for t in ("plain", "k8")]
    assert "k" not in sides[0]["config"] and "k" not in sides[1]["config"]
    assert sides[0]["config_hash"] == sides[1]["config_hash"]
    code, _, err = run_cli(capsys, base + ["--k", "many"])
    assert code == 2 and json.loads(err)["error"]["kind"] == "usage"


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


# runs cli.main on each argv of the JSON list in argv[1], then prints the exit
# codes, every scipy module the process imported, whether it imported numpy,
# the package modules in sys.modules right after the CLI import and those
# executed by the end (a lazily registered module stays unexecuted until used),
# which of a few start-up-costly modules it imported, and the OpenBLAS spin
FRESH_CLI = """
import json, os, sys, types
from cavityspin.cli import main
registered = sorted(m for m in sys.modules if m.startswith("cavityspin."))
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:  # --help
        codes.append(exc.code)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
executed = sorted(
    m for m, module in sys.modules.items()
    if m.startswith("cavityspin.") and type(module) is types.ModuleType
)
costly = sorted(m for m in ("csv", "dataclasses", "hashlib", "numpy") if m in sys.modules)
print(json.dumps({"codes": codes, "scipy": scipy, "numpy": "numpy" in sys.modules,
                  "registered": registered, "executed": executed, "costly": costly,
                  "blas_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}))
"""


def _fresh_cli(argvs, **env):
    """The FRESH_CLI report; ``env`` sets variables, or unsets them with None."""
    src = str(Path(cavityspin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    environ = dict(os.environ, PYTHONPATH=path)
    for key, value in env.items():
        environ.pop(key, None)
        if value is not None:
            environ[key] = value
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, json.dumps(argvs)],
        env=environ,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_dense_and_no_solve_commands_never_import_scipy():
    argvs = [
        ["--help"],
        ["derive-params", "--omega", "1.0", "--g0", "0.05", "--rabi", "4.0",
         "--delta-e", "60", "--delta-a", "30", "--eta=-3"],
        ["analytic-1d", "--omega", "1.0", "--lam=-0.05", "--delta", "2.0", "--n", "4"],
        ["meanfield", "--lx", "18", "--ly", "18", "--delta", "30", "--omega", "1",
         "--g=0.9,1.83"],
        ["polya", "--lx", "3", "--ly", "3", "--nexc", "0,1,2,3,4"],
        ["frustration-scan", "--lx", "10", "--delta-a-ratios", "0.4,0.6",
         "--etas=-3,-5", "--ly-ratios", "1,3"],
        ["spin-ed", "--lx", "3", "--ly", "3", "--lambda-a=-0.15", "--lambda-b=-0.08",
         "--omega", "0.7", "--nexc", "0,1,2"],
        ["crossover", "--lx", "2", "--ly", "2", "--omega", "1", "--delta-ratios", "20,40"],
        # past the dense cutoff, routed to the small symmetric orbit block
        ["spin-ed", "--lx", "5", "--ly", "4", "--lambda-a=-0.15", "--lambda-b=-0.07",
         "--omega", "1", "--nexc", "10"],
        # Jaynes-Cummings sectors of dim 2016, on their symmetric orbit block
        ["jc-ed", "--lx", "3", "--ly", "3", "--omega", "1", "--g", "0.4",
         "--delta-a", "6", "--delta-b", "5.5", "--ntotal", "4"],
        ["correlations", "--lx", "3", "--ly", "3", "--lambda-a=-0.15",
         "--lambda-b=-0.07", "--omega", "1", "--nexc", "4", "--jc-delta-ratio", "40"],
    ]
    result = _fresh_cli(argvs)
    assert result["codes"] == [0] * len(argvs)
    assert result["scipy"] == []


def test_cli_lanczos_solve_imports_scipy_and_converges():
    # frustrated 4x4 n=8: dim 12870, full-sector Lanczos; an unconverged
    # solve would be a compute error with exit 1
    argv = ["spin-ed", "--lx", "4", "--ly", "4", "--lambda-a=0.1", "--lambda-b=-0.3",
            "--omega", "1", "--nexc", "8"]
    result = _fresh_cli([argv])
    assert result["codes"] == [0]
    assert "scipy.sparse.linalg" in result["scipy"]


def test_cli_help_and_closed_forms_never_import_numpy():
    argvs = [
        ["--help"],
        ["derive-params", "--omega", "1.0", "--g0", "0.05", "--rabi", "4.0",
         "--delta-e", "60", "--delta-a", "30", "--eta=-3"],
        ["analytic-1d"],
        ["analytic-1d", "--omega", "1.0", "--lam=-0.05", "--delta", "2.0", "--n", "4"],
        ["meanfield", "--lx", "18", "--ly", "18", "--delta", "30", "--omega", "1",
         "--g=0.9,1.83"],
        ["frustration-scan", "--lx", "10", "--delta-a-ratios", "0.4,0.6",
         "--etas=-3,-5", "--ly-ratios", "1,3"],
    ]
    result = _fresh_cli(argvs)
    assert result["codes"] == [0] * len(argvs)
    assert result["numpy"] is False
    # every layer module is in sys.modules as soon as the CLI is imported
    layers = {"linalg", "basis", "spinmodel", "jcmodel", "frustration", "symmetry", "io"}
    assert {"cavityspin." + m for m in layers} <= set(result["registered"])
    assert result["executed"] == [
        "cavityspin.cli", "cavityspin.frustration", "cavityspin.geometry",
        "cavityspin.io", "cavityspin.meanfield", "cavityspin.onedim",
        "cavityspin.params",
    ]


@pytest.mark.parametrize(
    "argv, models",
    [
        (["frustration-scan", "--lx", "10", "--delta-a-ratios", "0.4",
          "--etas=-3", "--ly-ratios", "1"], ["frustration"]),
        (["spin-ed", "--lx", "2", "--ly", "2", "--lambda-a=-0.2", "--omega", "1",
          "--nexc", "1"],
         ["basis", "canonical", "linalg", "observables", "spinmodel"]),
        # dim 2016, scalar detunings: the JC symmetric orbit block
        (["jc-ed", "--lx", "3", "--ly", "3", "--omega", "1", "--g", "0.4",
          "--delta-a", "6", "--delta-b", "5.5", "--ntotal", "4"],
         ["basis", "canonical", "jcmodel", "linalg", "observables"]),
        (["polya", "--lx", "3", "--ly", "3"], ["basis", "canonical", "symmetry"]),
    ],
)
def test_cli_command_executes_only_its_own_models(argv, models):
    result = _fresh_cli([argv])
    assert result["codes"] == [0]
    base = ["cli", "geometry", "io", "params"]
    assert result["executed"] == sorted("cavityspin." + m for m in base + models)


def test_cli_help_executes_only_the_cli_and_imports_nothing_costly():
    result = _fresh_cli([["--help"]])
    assert result["codes"] == [0]
    assert result["executed"] == ["cavityspin.cli"]
    assert result["costly"] == []


def test_cli_stdout_run_hashes_nothing_and_out_sidecar_hashes_its_config(tmp_path):
    argv = ["spin-ed", "--lx", "2", "--ly", "2", "--lambda-a=-0.2", "--omega", "1",
            "--nexc", "1"]
    result = _fresh_cli([argv, argv + [f"--out={tmp_path / 't.csv'}"]])
    assert result["codes"] == [0, 0]
    assert "hashlib" in result["costly"]  # the --out run
    assert "hashlib" not in _fresh_cli([argv])["costly"]
    meta = json.loads((tmp_path / "t.csv.json").read_text(encoding="utf-8"))
    assert meta["config_hash"] == io.config_hash(meta["config"])


@pytest.mark.parametrize(
    "env, expected",
    [
        ({"OPENBLAS_THREAD_TIMEOUT": None, "GOTO_THREAD_TIMEOUT": None}, "16"),
        ({"OPENBLAS_THREAD_TIMEOUT": "30", "GOTO_THREAD_TIMEOUT": None}, "30"),
        ({"OPENBLAS_THREAD_TIMEOUT": None, "GOTO_THREAD_TIMEOUT": "30"}, None),
    ],
)
def test_cli_shortens_the_idle_blas_spin_unless_the_user_set_it(env, expected):
    result = _fresh_cli([["analytic-1d"]], **env)
    assert result["codes"] == [0]
    assert result["blas_timeout"] == expected


def test_package_exports_resolve_lazily():
    for name in [*cavityspin.__all__, "__version__"]:
        assert getattr(cavityspin, name) is not None
    assert cavityspin.__version__ == io.ARTIFACT_VERSION
    assert cavityspin.ArrayGeometry is ArrayGeometry
    with pytest.raises(AttributeError):
        cavityspin.no_such_name


@pytest.mark.parametrize("name", sorted(cli._HANDLERS))
def test_cli_subcommand_help(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cavityspin {name}")


def test_cli_flag_of_another_command_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, ["polya", "--lambda-a=1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "usage"
