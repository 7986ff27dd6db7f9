"""End-to-end acceptance checks.

Each test prints exactly one ``criterion NN [PASS/FAIL]`` line (visible with
``pytest -s``) and then asserts, so a red run names the failing guarantee.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cavityspin import io, jcmodel, meanfield, onedim, spinmodel, symmetry
from cavityspin.cli import main as cli_main
from cavityspin.frustration import (
    FrustrationParams,
    gs_energies_01,
    lambda_c_photon,
    lambda_c_spin,
    photonic_spectrum,
    quality_and_ratio,
)
from cavityspin.geometry import ArrayGeometry
from cavityspin.params import EffectiveJCParams, SpinCouplings

from oracles import spin_correlation_reference


def _report(num: int, checks: list, desc: str) -> None:
    failures = [detail for ok, detail in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} [{status}] {desc}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(map(str, failures))


def test_criterion_01_plaquette_pattern_inventory():
    checks = []
    ci = symmetry.cycle_index(symmetry.build_group(ArrayGeometry(2, 2)))
    expected = {
        (4, 0, 0, 0): Fraction(1, 8),
        (2, 1, 0, 0): Fraction(2, 8),
        (0, 2, 0, 0): Fraction(3, 8),
        (0, 0, 0, 1): Fraction(2, 8),
    }
    checks.append((dict(ci.terms) == expected, "cycle index coefficients"))
    inventory = ci.pattern_inventory()
    checks.append((inventory == [1, 1, 2, 1, 1], f"inventory {inventory}"))
    _report(1, checks, "2x2 cycle index exact in rationals; class counts 1,1,2,1,1")


# symmetric hopping matrix between the five 4-excitation classes of the 3x3
# array, in units of twice the coupling (independent transcription)
REFERENCE_CLASS_MATRIX = np.array(
    [
        [3, 0, 2, 2, 2],
        [0, 0, 4, 0, 0],
        [2, 4, 2, 4, 0],
        [2, 0, 4, 4, 4],
        [2, 0, 0, 4, 0],
    ],
    dtype=float,
)


def test_criterion_02_class_basis_matrix():
    checks = []
    geom = ArrayGeometry(3, 3)
    group = symmetry.build_group(geom)
    classes = symmetry.orbits(group, 4)
    checks.append((len(classes) == 5, f"{len(classes)} classes"))
    checks.append(
        (sum(c.size for c in classes) == 126, "class sizes must cover the sector")
    )
    couplings = SpinCouplings(lambda_a=0.5, lambda_b=0.5, omega_at=0.0)
    oh = symmetry.orbit_basis_hamiltonian(geom, couplings, 4)
    found = symmetry.match_up_to_class_permutation(oh.matrix, REFERENCE_CLASS_MATRIX)
    checks.append((found is not None, "no class relabeling reproduces the reference"))
    if found is not None:
        perm, scale = found
        permuted = REFERENCE_CLASS_MATRIX[np.ix_(perm, perm)]
        exact = np.array_equal(oh.matrix, scale * permuted)
        checks.append((exact, f"match not integer-exact (perm {perm} scale {scale})"))
    _report(2, checks, "3x3 four-excitation sector: 5 classes, matrix matches reference")


def test_criterion_03_plaquette_ground_state():
    checks = []
    geom = ArrayGeometry(2, 2)
    couplings = SpinCouplings(lambda_a=-0.3, lambda_b=-0.3, omega_at=1.0)
    spec, basis = spinmodel.sector_ground(geom, couplings, 2)
    classes = symmetry.orbits(symmetry.build_group(geom), 2)
    dec = symmetry.ground_state_orbit_decomposition(
        spec.eigenvectors[:, 0], basis, classes
    )
    checks.append((dec.complete, "ground state leaves the symmetric sector"))
    overlap = abs(float(np.sum(dec.amplitudes)) / math.sqrt(2.0))
    checks.append((overlap >= 1.0 - 1e-10, f"overlap {overlap!r}"))
    _report(3, checks, "2x2 two-excitation ground state is the equal class mixture")


def test_criterion_04_one_excitation_tables():
    checks = []
    rng = np.random.default_rng(21)
    worst = 0.0
    for lx in range(1, 9):
        for ly in range(1, 9):
            geom = ArrayGeometry(lx, ly)
            la = float(rng.uniform(-0.5, 0.5))
            lb = float(rng.uniform(-0.5, 0.5))
            couplings = SpinCouplings(lambda_a=la, lambda_b=lb, omega_at=0.0)
            closed = spinmodel.one_exc_closed_spectrum(geom, couplings)
            flat = np.sort(
                np.repeat([e for e, _ in closed], [m for _, m in closed])
            )
            jx = np.ones((lx, lx)) - np.eye(lx)
            jy = np.ones((ly, ly)) - np.eye(ly)
            dense = 2 * la * np.kron(np.eye(ly), jx) + 2 * lb * np.kron(
                jy, np.eye(lx)
            )
            ev = np.linalg.eigvalsh(dense)
            if flat.shape != ev.shape:
                checks.append((False, f"{lx}x{ly}: multiplicity mismatch"))
                continue
            worst = max(worst, float(np.max(np.abs(flat - ev))))
    checks.append((worst < 1e-12, f"worst deviation {worst:.3e}"))
    _report(4, checks, "closed one-excitation spectra exact for all arrays up to 8x8")


def test_criterion_05_single_mode_levels():
    checks = []
    n_spins, n_max = 4, 20
    delta, omega, lam = 2.3, 1.0, -0.17
    h, mvals, nvals = jcmodel.collective_mode_hamiltonian(
        n_spins, delta, omega, lam, n_max
    )
    worst = 0.0
    for m in np.unique(mvals):
        for n in range(6):
            sel = np.nonzero((mvals == m) & (nvals == n))[0]
            evals = np.sort(np.linalg.eigvalsh(h[np.ix_(sel, sel)]))
            closed = onedim.sector_level_list(
                n_spins, float(m), n, delta, omega, lam
            )
            take = min(10, len(evals))
            worst = max(
                worst, float(np.max(np.abs(evals[:take] - np.array(closed)[:take])))
            )
    checks.append((worst < 1e-9, f"worst level deviation {worst:.3e}"))
    _report(5, checks, "single-mode blocks reproduce the closed level formula")


def test_criterion_06_transition_couplings():
    checks = []
    omega = 1.0
    for side in (3, 4, 5):
        geom = ArrayGeometry(side, side)
        for shift, expected in (
            (True, -omega / (4.0 * side)),
            (False, -omega / (4.0 * (side - 1))),
        ):
            pts = spinmodel.transition_couplings(
                geom,
                omega,
                lambda_min=-0.5,
                lambda_max=-1e-9,
                include_lambda_shift=shift,
                max_transitions=1,
            )
            ok = (
                pts
                and pts[0].n_from == 0
                and abs(pts[0].lambda_c - expected) < 1e-10
            )
            got = pts[0].lambda_c if pts else None
            checks.append((ok, f"L={side} shift={shift}: {got} vs {expected}"))
    _report(6, checks, "first spin crossings on square arrays match closed values")


def test_criterion_07_mean_field():
    checks = []
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        geom = ArrayGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        delta = float(rng.uniform(0.4, 50.0))
        omega = float(rng.uniform(0.2, 4.0))
        gc = meanfield.mf_critical_g(geom, delta, omega)
        g = float(rng.uniform(0.2, 3.0)) * gc
        closed = meanfield.mf_alpha_sq(geom, g, delta, omega)
        numeric = meanfield.minimize_energy_numeric(geom, g, delta, omega)
        worst = max(worst, abs(closed - numeric) / max(1.0, abs(closed)))
        if closed > 0.0:
            gam = meanfield.mf_gamma(geom, g, delta, omega)
            identity = geom.n_sites * gam * gam / (1.0 + gam * gam)
            dev = abs(meanfield.mf_excitations(geom, g, delta, omega) - identity)
            checks.append(
                (dev <= 1e-12 * geom.n_sites, f"excitation identity off by {dev:.2e}")
            )
    checks.append((worst <= 1e-8, f"worst closed-vs-numeric deviation {worst:.2e}"))
    geom = ArrayGeometry(6, 4)
    delta, omega = 9.0, 0.7
    gc = meanfield.mf_critical_g(geom, delta, omega)
    checks.append((meanfield.mf_alpha_sq(geom, gc, delta, omega) == 0.0, "alpha at gc"))
    checks.append(
        (meanfield.mf_excitations(geom, gc, delta, omega) == 0.0, "n_exc at gc")
    )
    eps = gc * (1.0 + 1e-12)
    checks.append(
        (meanfield.mf_alpha_sq(geom, eps, delta, omega) < 1e-8, "alpha continuity")
    )
    checks.append(
        (meanfield.mf_excitations(geom, eps, delta, omega) < 1e-8, "n_exc continuity")
    )
    _report(7, checks, "mean-field closed forms: minimizer, continuity, identity")


def test_criterion_08_dispersive_crossover():
    checks = []
    geom = ArrayGeometry(2, 2)
    omega = 1.0
    rel = {}
    for ratio in (20.0, 40.0):
        delta = ratio * omega
        pts = spinmodel.transition_couplings(
            geom, omega, lambda_min=-0.6, lambda_max=-1e-9, max_transitions=1
        )
        lam_c = pts[0].lambda_c
        g_spin = math.sqrt(-2.0 * lam_c * (delta - omega))
        g_jc = jcmodel.superradiant_critical_g(
            geom, omega, delta, delta, g_lo=0.5 * g_spin, g_hi=1.5 * g_spin
        )
        rel[ratio] = abs(g_jc - g_spin) / g_spin
    checks.append((rel[20.0] < 0.10, f"discrepancy {rel[20.0]:.4f} at ratio 20"))
    checks.append((rel[40.0] < 0.05, f"discrepancy {rel[40.0]:.4f} at ratio 40"))
    checks.append(
        (rel[40.0] < rel[20.0], f"no approach: {rel[20.0]:.4f} -> {rel[40.0]:.4f}")
    )
    _report(8, checks, "full-model critical coupling approaches the spin prediction")


def test_criterion_09_correlation_ratios():
    checks = []
    geom = ArrayGeometry(3, 3)
    omega, lam = 1.0, -0.1
    couplings = SpinCouplings(lambda_a=lam, lambda_b=lam, omega_at=omega)
    spin_ratio = {}
    for n_exc in range(1, 9):
        spec, basis = spinmodel.sector_ground(geom, couplings, n_exc)
        res = spinmodel.correlation_ratio(spec, basis)
        _, s_nn, s_nnn, ratio, msize = spin_correlation_reference(
            geom, couplings, n_exc
        )
        ok = (
            not res.cluster_truncated
            and res.multiplet_size == msize
            and abs(res.sigma_nn - s_nn) < 1e-10
            and abs(res.sigma_nnn - s_nnn) < 1e-10
            and abs(res.ratio - ratio) < 1e-10
        )
        checks.append((ok, f"spin sector {n_exc} vs dense reference"))
        spin_ratio[n_exc] = res.ratio
    ratio_do = 40.0
    delta_a = ratio_do * omega
    g = math.sqrt(-2.0 * lam * (delta_a - omega))
    delta_b = omega - g * g / (2.0 * lam)
    jc = EffectiveJCParams(omega_at=omega, g=g, delta_a=delta_a, delta_b=delta_b)
    for n_total in (1, 2, 3):
        jspec, jbasis = jcmodel.jc_sector_ground(geom, jc, n_total)
        jres = jcmodel.jc_correlation_ratio(jspec, jbasis)
        diff = abs(jres.ratio - spin_ratio[n_total])
        checks.append(
            (
                not jres.cluster_truncated and diff < 0.05,
                f"full model n={n_total}: |diff| {diff:.4f}",
            )
        )
    _report(9, checks, "pair-correlation ratios: ED vs dense; full model vs spin")


def test_criterion_10_frustrated_regime():
    checks = []
    # spin crossing against sector-ED bisection
    for lx, ly, eta in [(3, 2, -2.0), (2, 3, -3.5)]:
        geom = ArrayGeometry(lx, ly)
        lam_closed = lambda_c_spin(1.0, eta, ly)

        def gap(la):
            c = SpinCouplings(lambda_a=la, lambda_b=eta * la, omega_at=1.0)
            return spinmodel.sector_ground_energy(geom, c, 1) - gs_energies_01(
                geom, c
            )[0]

        lo, hi = 1e-6, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        checks.append(
            (
                abs(lam_closed - 0.5 * (lo + hi)) < 1e-10,
                f"spin crossing {lx}x{ly} eta={eta}",
            )
        )
    # closed photonic eigenvalues against dense diagonalization
    rng = np.random.default_rng(41)
    done, worst = 0, 0.0
    while done < 40:
        lx = int(rng.integers(1, 8))
        ly = int(rng.integers(1, 8))
        da = float(rng.uniform(0.1, 1.5))
        eta = -float(rng.uniform(0.2, 5.0))
        p = FrustrationParams(lx=lx, ly=ly, delta_a=da, omega_at=1.0, eta=eta)
        if p.delta_b <= 0:
            continue
        spec = photonic_spectrum(
            p, float(rng.uniform(0.0, 0.05)), float(rng.choice([-1.0, 1.0]))
        )
        worst = max(worst, float(np.max(np.abs(spec.closed_sorted() - spec.numeric))))
        done += 1
    checks.append((worst < 1e-10, f"photonic closed-vs-dense worst {worst:.2e}"))
    # margin ratio across the wide-array grid
    above_one = False
    for da in (0.4, 0.6):
        rs = []
        for ly in (10, 15, 20, 30, 45, 60, 90):
            p = FrustrationParams(lx=10, ly=ly, delta_a=da, omega_at=1.0, eta=-3.0)
            rs.append(quality_and_ratio(p).r)
        checks.append(
            (all(b >= a for a, b in zip(rs, rs[1:])), f"ratio not monotone at {da}")
        )
        above_one = above_one or any(r > 1.0 for r in rs)
    checks.append((above_one, "margin ratio never exceeds 1 on the grid"))
    tail = []
    for eta in (-50.0, -150.0, -450.0):
        p = FrustrationParams(lx=10, ly=30, delta_a=0.4, omega_at=1.0, eta=eta)
        tail.append(quality_and_ratio(p).r)
    checks.append(
        (
            abs(tail[-1] - tail[-2]) < 0.02 * abs(tail[-1]),
            f"no saturation: tail {tail}",
        )
    )
    _report(10, checks, "frustrated regime: crossings, photon spectra, margin map")


CLI_CASES = [
    ("derive-params", ["derive-params", "--g0", "0.02", "--rabi", "2.0",
                       "--delta-e", "40.0", "--delta-a", "12.0", "--eta", "-3.0"]),
    ("spin-ed", ["spin-ed", "--lx", "2", "--ly", "3", "--omega", "1.0",
                 "--lambda-a", "-0.11", "--lambda-b", "-0.07",
                 "--nexc", "0,1,2", "--k", "2"]),
    ("jc-ed", ["jc-ed", "--lx", "2", "--ly", "2", "--omega", "1.0", "--g", "0.3",
               "--delta-a", "8.0", "--delta-b", "8.0", "--ntotal", "0,1,2"]),
    ("crossover", ["crossover", "--lx", "2", "--ly", "2", "--omega", "1.0",
                   "--delta-ratios", "20"]),
    ("excitation-curve", ["excitation-curve", "--lx", "2", "--ly", "2",
                          "--omega", "1.0", "--lambdas=-0.05,-0.2,-0.5"]),
    ("correlations", ["correlations", "--lx", "3", "--ly", "3", "--omega", "1.0",
                      "--lambda-a", "-0.1", "--nexc", "1,2",
                      "--jc-delta-ratio", "40"]),
    ("analytic-1d", ["analytic-1d", "--omega", "1.0", "--lam", "-0.2",
                     "--delta", "2.0", "--n", "4"]),
    ("meanfield", ["meanfield", "--lx", "4", "--ly", "4", "--delta", "10.0",
                   "--omega", "1.0", "--g", "0.5,0.9,1.3"]),
    ("polya", ["polya", "--lx", "3", "--ly", "3", "--nexc", "0,1,2,3,4"]),
    ("frustration-scan", ["frustration-scan", "--lx", "10",
                          "--delta-a-ratios", "0.4,0.6", "--etas=-3,-5",
                          "--ly-ratios", "1,3", "--omega", "1.0"]),
]


def test_criterion_11_cli_determinism(tmp_path, capsys):
    checks = []
    for name, argv in CLI_CASES:
        blobs = []
        for run in ("x", "y"):
            out = tmp_path / f"{name}-{run}.csv"
            code = cli_main(argv + ["--out", str(out)])
            capsys.readouterr()
            if code != 0:
                break
            blobs.append(out.read_bytes())
        ok = len(blobs) == 2 and blobs[0] == blobs[1]
        checks.append((ok, f"{name} not byte-identical across runs"))
    scans = []
    for workers in ("1", "4"):
        out = tmp_path / f"scan-w{workers}.csv"
        code = cli_main(CLI_CASES[-1][1] + ["--workers", workers, "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        scans.append(out.read_bytes())
        side = json.loads((tmp_path / f"scan-w{workers}.csv.json").read_text())
        checks.append(
            ("workers" not in side["config"], "worker count leaked into the config")
        )
    checks.append((scans[0] == scans[1], "parallel scan changed bytes"))
    _report(11, checks, "every command emits byte-identical CSV across runs")
