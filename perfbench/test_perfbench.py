"""Tests of the benchmark itself: span accounting, output checks, generator."""

import contextlib
import io
import math
import sys
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children_on_synthetic_nested_spans():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    tracer = layers.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.command = "c1"
    with tracer.span("cli.main"):
        with tracer.span("spinmodel.sector_ground"):
            with tracer.span("linalg.ground_state"):
                pass
        with tracer.span("spinmodel.sector_ground"):
            pass
    root, a, leaf, b = tracer.spans
    assert (a.parent, leaf.parent, b.parent) == (root.id, a.id, root.id)
    assert all(s.command == "c1" for s in tracer.spans)
    selfs = layers.self_times(tracer.spans)
    assert selfs == {root.id: 3.0, a.id: 2.0, leaf.id: 1.0, b.id: 4.0}
    metrics = layers.layer_metrics(tracer)
    assert metrics["cli.main.self_s"] == 3.0
    assert metrics["spinmodel.sector_ground.self_s"] == 6.0
    assert metrics["linalg.ground_state.self_s"] == 1.0


def test_covered_merges_overlapping_children_and_clips_to_parent():
    parent = layers.Span(0, "p", 0.0, 10.0, None, None)
    kids = [
        layers.Span(1, "x", 1.0, 4.0, 0, None),
        layers.Span(2, "y", 3.0, 5.0, 0, None),
        layers.Span(3, "z", 8.0, 12.0, 0, None),
    ]
    assert layers.covered(parent, kids) == 6.0


def test_ratio_metrics_are_zero_without_a_denominator():
    tracer = layers.Tracer()
    tracer.counts["frustration.lambda_c_photon.spectra"] = 80
    tracer.counts["frustration.lambda_c_photon.roots"] = 2
    metrics = layers.layer_metrics(tracer)
    assert metrics["frustration.lambda_c_photon.spectra_per_root"] == 40.0
    assert metrics["jcmodel.superradiant_critical_g.solves_per_root"] == 0.0


def _spin_ed_csv(p, energy_shift=0.0, dim_shift=0):
    """The reference table of a small spin-ed command, with optional perturbations."""
    lines = ["n_exc,dim,energy,multiplet_size"]
    n_sites = p["lx"] * p["ly"]
    for n in p["nexc"]:
        level, mult = checks.exact_hop_ground(p["lx"], p["ly"], n, p["lambda_a"], p["lambda_b"])
        e = (checks.spin_diag(p, n) + level) / p["omega"] + (energy_shift if n == 1 else 0.0)
        dim = comb(n_sites, n) + (dim_shift if n == 2 else 0)
        lines.append(f"{n},{dim},{e!r},{mult}")
    return "\n".join(lines) + "\n"


def _command(workload, label, seed=1):
    return next(c for c in workloads.generate(workload, seed) if c.label == label)


def test_checker_passes_reference_csv_and_flags_perturbations():
    cmd = _command("cli-session", "spin-ed-3x3")
    assert checks.check_command(cmd, 0, _spin_ed_csv(cmd.params), "", None) == []

    shifted = checks.check_command(cmd, 0, _spin_ed_csv(cmd.params, energy_shift=1e-6), "", None)
    assert [key for key, _ in shifted] == ["energy"]

    wrong_dim = checks.check_command(cmd, 0, _spin_ed_csv(cmd.params, dim_shift=1), "", None)
    assert [key for key, _ in wrong_dim] == ["dim"]


def test_checker_flags_perturbed_excitation_curve_energy():
    cmd = _command("cli-session", "excitation-curve-2x2")
    p = cmd.params
    lam, w = p["lambdas"][0], p["omega"]
    q = {"lx": 2, "ly": 2, "omega": w, "lambda_a": lam, "lambda_b": lam}
    sectors = [
        (checks.spin_diag(q, k) + checks.exact_hop_ground(2, 2, k, lam, lam)[0]) / w
        for k in range(5)
    ]
    n = sectors.index(min(sectors))
    header = ["lambda", "n_exc", "energy"]
    good = [{"lambda": lam / w, "n_exc": n, "energy": sectors[n]}]
    bad = [dict(good[0], energy=sectors[n] + 1e-6)]
    one = dict(p, lambdas=[lam])
    assert checks.check_excitation_curve(header, good, one) == []
    assert [k for k, _ in checks.check_excitation_curve(header, bad, one)] == ["energy"]


def test_exact_sector_reference_matches_the_closed_one_excitation_spectrum():
    for lam_a, lam_b in ((-0.15, -0.08), (0.1, -0.3)):
        level, mult = checks.one_exc_levels(3, 3, lam_a, lam_b)[0]
        got = checks.exact_hop_ground(3, 3, 1, lam_a, lam_b)
        assert math.isclose(got[0], level, abs_tol=1e-12) and got[1] == mult


def test_frustration_reference_matches_the_row_branch_when_it_crosses_first():
    # Ly = 1 has no row branch; the determinant root must then set R
    r, q = checks.frustration_reference(4, 1, 0.5, -2.0, 1.0)
    da, eta, lx, ly = 0.5, -2.0, 4, 1
    db = (da - 1.0) / eta + 1.0
    det = lambda lam: (da - 2 * lam * lx) * (db - 2 * eta * lam * ly) - lx * ly * lam**2 * (1 + eta) ** 2  # noqa: E731
    lam_c = r * (-1.0 / (2 * eta * ly))
    assert abs(det(lam_c)) < 1e-12
    assert q > 0


def test_stderr_contract():
    assert checks.check_stderr(0, "") == []
    assert [k for k, _ in checks.check_stderr(0, "warning\n")] == ["stderr"]
    err = '{"error": {"kind": "compute", "message": "m", "type": "RegimeError"}}\n'
    (key, message), = checks.check_stderr(1, err)
    assert key == "exit" and "documented" in message
    (key, message), = checks.check_stderr(1, "Traceback ...")
    assert "undocumented" in message


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_only_values_depend_on_the_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert [c.label for c in first] == [c.label for c in other]
    assert [len(c.argv) for c in first] == [len(c.argv) for c in other]
    assert [c.argv for c in first] != [c.argv for c in other]
    for c in first:
        assert all(not arg.startswith("--workers") for arg in c.argv)


def test_cli_session_keeps_the_frustrated_multiplet_case():
    cmd = _command("cli-session", "spin-ed-3x3-frustrated")
    assert cmd.known_defects == {workloads.FRUSTRATED_MULTIPLET}
    assert cmd.params["lambda_a"] > 0 > cmd.params["lambda_b"]
    assert sum(1 for c in workloads.generate("cli-session", 1) if c.out) == 7


def test_instrument_wraps_every_binding_and_restores_them():
    cli = pytest.importorskip("cavityspin.cli")
    import cavityspin.linalg as linalg
    import cavityspin.spinmodel as spinmodel

    original = linalg.ground_state
    tracer = layers.Tracer()
    with layers.instrument(tracer):
        assert spinmodel.ground_state is linalg.ground_state is not original
        with tracer.span(layers.ROOT_SPAN):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["spin-ed", "--lx=2", "--ly=2", "--lambda-a=-0.1", "--omega=1", "--nexc=1"])
    assert code == 0
    assert spinmodel.ground_state is linalg.ground_state is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "spinmodel.sector_ground", "linalg.ground_state", "basis.enumerate_masks"} <= names
    metrics = layers.layer_metrics(tracer)
    assert metrics["linalg.ground_state.calls"] == 1
    assert metrics["linalg.dense_calls"] == 1
    assert metrics["linalg.dim_max"] == 4
    assert math.isclose(metrics["linalg.dense_bytes"], 8 * 16)
