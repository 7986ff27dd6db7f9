"""Frustrated-regime analysis: closed forms, oracles, and the region scan."""

import math
import warnings

import numpy as np
import pytest

from cavityspin import io, spinmodel
from cavityspin.basis import SectorBasis
from cavityspin.frustration import (
    FrustrationParams,
    g_c_spin,
    gs_energies_01,
    lambda_c_photon,
    lambda_c_spin,
    photonic_matrix,
    photonic_spectrum,
    quality_and_ratio,
    region_scan,
)
from cavityspin.cli import main
from cavityspin.geometry import ArrayGeometry
from cavityspin.params import RegimeError, SpinCouplings


def test_one_exc_spectrum_matches_kron_blocks():
    rng = np.random.default_rng(5)
    for lx, ly in [(2, 2), (3, 4), (5, 3), (1, 6), (6, 1), (4, 4)]:
        la = float(rng.uniform(0.01, 0.3))
        lb = -float(rng.uniform(0.01, 0.3))
        geom = ArrayGeometry(lx, ly)
        jx = np.ones((lx, lx)) - np.eye(lx)
        jy = np.ones((ly, ly)) - np.eye(ly)
        h = 2 * la * np.kron(np.eye(ly), jx) + 2 * lb * np.kron(jy, np.eye(lx))
        ev = np.linalg.eigvalsh(h)
        c = SpinCouplings(lambda_a=la, lambda_b=lb, omega_at=0.0)
        closed = spinmodel.one_exc_closed_spectrum(geom, c)
        flat = np.sort(np.concatenate([[val] * m for val, m in closed]))
        assert flat.shape == ev.shape
        assert np.max(np.abs(flat - ev)) < 1e-12
        if lx >= 2 and ly >= 2:
            # frustrated minimum: antisymmetric along rows, symmetric along cols
            vals = sorted(closed)
            assert vals[0][0] == pytest.approx(-2 * la + 2 * (ly - 1) * lb)
            assert vals[0][1] == lx - 1


def test_closed_01_energies_match_sector_ed():
    for lx, ly in [(3, 2), (2, 4)]:
        geom = ArrayGeometry(lx, ly)
        c = SpinCouplings(lambda_a=0.08, lambda_b=-0.19, omega_at=1.0)
        e0, e1 = gs_energies_01(geom, c)
        assert e0 == pytest.approx(
            spinmodel.sector_ground_energy(geom, c, 0), abs=1e-12
        )
        assert e1 == pytest.approx(
            spinmodel.sector_ground_energy(geom, c, 1), abs=1e-12
        )


def test_lambda_c_spin_matches_ed_bisection():
    for lx, ly, eta in [(3, 2, -2.0), (2, 3, -3.5), (4, 2, -1.5)]:
        geom = ArrayGeometry(lx, ly)
        lam_c = lambda_c_spin(1.0, eta, ly)

        def gap(la):
            c = SpinCouplings(lambda_a=la, lambda_b=eta * la, omega_at=1.0)
            return spinmodel.sector_ground_energy(geom, c, 1) - gs_energies_01(
                geom, c
            )[0]

        lo, hi = 1e-6, 10.0
        assert gap(lo) > 0 > gap(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert lam_c == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_closed_photonic_spectrum_matches_dense():
    rng = np.random.default_rng(7)
    done = 0
    while done < 40:
        lx = int(rng.integers(1, 8))
        ly = int(rng.integers(1, 8))
        da = float(rng.uniform(0.1, 1.5))
        eta = -float(rng.uniform(0.2, 5.0))
        p = FrustrationParams(lx=lx, ly=ly, delta_a=da, omega_at=1.0, eta=eta)
        if p.delta_b <= 0:
            continue
        la = float(rng.uniform(0.0, 0.05))
        s = float(rng.choice([-1.0, -0.5, 1.0]))
        spec = photonic_spectrum(p, la, s)
        assert spec.closed_available
        assert np.max(np.abs(spec.closed_sorted() - spec.numeric)) < 1e-10
        # trace identity of the two mixed uniform modes
        assert spec.e_plus + spec.e_minus == pytest.approx(spec.epsilon, abs=1e-12)
        done += 1


def test_nonuniform_background_numeric_only():
    rng = np.random.default_rng(3)
    p = FrustrationParams(lx=4, ly=3, delta_a=0.4, omega_at=1.0, eta=-3.0)
    szg = rng.uniform(-1.0, 1.0, size=(3, 4))
    spec = photonic_spectrum(p, 0.01, szg)
    assert not spec.closed_available
    m = photonic_matrix(p, 0.01, szg)
    assert np.array_equal(m, m.T)
    assert np.max(np.abs(np.linalg.eigvalsh(m) - spec.numeric)) < 1e-14
    with pytest.raises(ValueError):
        photonic_spectrum(p, 0.01, np.ones((4, 3)))  # wrong orientation


def test_wide_array_golden_point():
    p = FrustrationParams(lx=10, ly=30, delta_a=0.4, omega_at=1.0, eta=-3.0)
    assert p.delta_b == pytest.approx(1.2, abs=1e-15)
    lam_ph = lambda_c_photon(p)
    assert lam_ph == pytest.approx((1 + math.sqrt(5)) / 200, abs=1e-9)
    assert lambda_c_spin(1.0, -3.0, 30) == pytest.approx(1.0 / 180, abs=1e-15)
    res = quality_and_ratio(p)
    assert res.r == pytest.approx((1 + math.sqrt(5)) / 200 * 180, abs=1e-6)
    assert res.r > 1.0
    assert g_c_spin(p) == pytest.approx(math.sqrt(1.0 / 150), abs=1e-15)
    assert res.q == pytest.approx(0.2 / math.sqrt(1.0 / 150), abs=1e-12)
    # margin ratio is fine here but the dispersive quality is not
    assert not res.valid and res.q < res.q_min


def test_photon_breakdown_matches_root_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        lx = int(rng.integers(1, 9))
        ly = int(rng.integers(1, 9))
        da = float(rng.uniform(0.1, 1.8))
        eta = -float(rng.uniform(0.2, 6.0))
        p = FrustrationParams(lx=lx, ly=ly, delta_a=da, omega_at=1.0, eta=eta)
        db = p.delta_b
        if db <= 0:
            continue
        # vanishing determinant of the mixed uniform-mode block: quadratic
        # in lambda_a on the fully lowered background
        a2 = -lx * ly * (1.0 - eta) ** 2
        a1 = -2.0 * (eta * ly * da + lx * db)
        a0 = da * db
        disc = a1 * a1 - 4 * a2 * a0
        roots = []
        if disc >= 0:
            for sgn in (1.0, -1.0):
                r = (-a1 + sgn * math.sqrt(disc)) / (2 * a2)
                if r > 0:
                    roots.append(r)
        if ly >= 2 and da > 0:
            roots.append(da / (2.0 * lx))
        if lx >= 2:
            rb = db / (2.0 * eta * ly)
            if rb > 0:
                roots.append(rb)
        expect = min(roots) if roots else None
        got = lambda_c_photon(p)
        assert (got is None) == (expect is None)
        if expect is not None:
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)
        checked += 1


def test_closed_form_breakdown_matches_the_grid_pencil():
    # a scalar s_z takes the 2x2 uniform-mode closed form, the same
    # background as a grid takes the numeric pencil
    rng = np.random.default_rng(22)
    for case in range(300):
        lx, ly = (int(v) for v in rng.integers(1, 13, size=2))
        if case % 5 == 0:
            lx = 1
        elif case % 5 == 1:
            ly = 1
        eta = -1.0 if case % 4 == 0 else -float(rng.uniform(0.2, 8.0))
        da = float(rng.uniform(0.05, 0.95))
        p = FrustrationParams(lx=lx, ly=ly, delta_a=da, omega_at=1.0, eta=eta)
        for s in (-1.0, -0.5, 0.5, 1.0):
            closed = lambda_c_photon(p, s_z=s)
            grid = lambda_c_photon(p, s_z=np.full((ly, lx), s))
            assert abs(closed - grid) <= 1e-12 * grid
        # s = 0: K = 0, no breakdown on either path
        assert lambda_c_photon(p, s_z=0.0) is None
        assert lambda_c_photon(p, s_z=np.zeros((ly, lx))) is None
    # the determinant s^2 Lx Ly (1 - eta)^2 / (Delta_a Delta_b) overflows
    # here, the closed form does not
    p = FrustrationParams(lx=4, ly=4, delta_a=0.5, omega_at=1.0, eta=-1e300)
    closed, grid = lambda_c_photon(p), lambda_c_photon(p, s_z=-np.ones((4, 4)))
    assert abs(closed - grid) <= 1e-12 * grid


def test_scan_prints_r_only_for_a_finite_positive_breakdown(capsys):
    # Delta_a = 1e-320 overflows a = 2 s Lx / Delta_a: the numeric pencil
    # leaked a numpy overflow warning onto stderr, and a bare closed form
    # would print R = 0 from -1 / mu = -1 / -inf.  Ly = 4e300 rows build no
    # mode matrix, so there R is a number.
    p = FrustrationParams(lx=4, ly=4, delta_a=1e-320, omega_at=1.0, eta=-3.0)
    with pytest.raises(ArithmeticError, match="not finite and positive"):
        lambda_c_photon(p)
    argv = ["frustration-scan", "--lx", "4", "--delta-a-ratios", "1e-320,0.5",
            "--etas=-3", "--ly-ratios", "1,1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    rows = io.parse_csv(out).rows
    for tiny in rows[0::2]:
        assert tiny[3:] == (None, None, "error")
    for fine in rows[1::2]:
        assert math.isfinite(fine[3]) and fine[3] > 0.0
        assert fine[5] in ("true", "false")


@pytest.mark.parametrize(
    "da_ratio, eta",
    [
        # lambda_c^spin = -omega / (2 eta Ly) and g_c^spin overflow to inf,
        # which printed R = 0, Q = 0, valid = false
        ("0.5", "-1e-310"),
        # R is about 1e-600 and underflowed to a printed 0
        ("1e-300", "-1e-300"),
    ],
)
def test_scan_flags_an_overflowing_or_underflowing_point(capsys, da_ratio, eta):
    argv = ["frustration-scan", "--lx", "4", "--delta-a-ratios", da_ratio,
            f"--etas={eta}", "--ly-ratios", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    (row,) = io.parse_csv(out).rows
    assert row[3:] == (None, None, "error")


def test_photon_breakdown_none_when_exact_mu_is_zero():
    # at eta = -1 the pencil K holds only line sums of s_z; a background whose
    # row and column sums all vanish gives K = 0 exactly, but the float sums
    # leave ~1e-17 residues that must not read as a breakdown near 1e16
    p = FrustrationParams(lx=4, ly=3, delta_a=0.4, omega_at=1.0, eta=-1.0)
    szg = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 4))
    szg -= szg.mean(axis=1, keepdims=True)
    szg -= szg.mean(axis=0, keepdims=True)
    assert np.max(np.abs(szg.sum(axis=1))) < 1e-15
    assert np.max(np.abs(szg.sum(axis=0))) < 1e-15
    assert lambda_c_photon(p, s_z=szg) is None
    # lowering one row by 1e-3 is a genuine breakdown, still found
    szg[1] -= 1e-3 / 4
    lam = lambda_c_photon(p, s_z=szg)
    assert lam == pytest.approx(0.4 / (2 * 1e-3), rel=1e-9)
    assert photonic_spectrum(p, 0.999 * lam, szg).minimum > 0.0
    assert photonic_spectrum(p, 1.001 * lam, szg).minimum < 0.0


def test_vacuum_stability_flips_at_breakdown():
    p = FrustrationParams(lx=10, ly=30, delta_a=0.4, omega_at=1.0, eta=-3.0)
    lam_ph = lambda_c_photon(p)
    assert photonic_spectrum(p, 0.0).minimum > 0.0
    assert photonic_spectrum(p, 0.9 * lam_ph).minimum > 0.0
    assert photonic_spectrum(p, 1.1 * lam_ph).minimum < 0.0


def test_margin_ratio_grows_with_column_count():
    for da in (0.4, 0.6):
        rs = []
        for ly in (10, 15, 20, 30, 60):
            p = FrustrationParams(lx=10, ly=ly, delta_a=da, omega_at=1.0, eta=-3.0)
            rs.append(quality_and_ratio(p).r)
        assert all(b > a for a, b in zip(rs, rs[1:]))
        assert rs[-1] > 1.0


def test_margin_ratio_saturates_in_anisotropy():
    rs = []
    for eta in (-2.0, -5.0, -15.0, -50.0, -150.0):
        p = FrustrationParams(lx=10, ly=30, delta_a=0.4, omega_at=1.0, eta=eta)
        rs.append(quality_and_ratio(p).r)
    diffs = [abs(b - a) for a, b in zip(rs, rs[1:])]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    # analytic limit of the stationary point as the anisotropy diverges
    lx, ly, da, om = 10, 30, 0.4, 1.0
    u = (ly * da + math.sqrt((ly * da) ** 2 + lx * ly * da * om)) / (lx * ly)
    assert rs[-1] == pytest.approx(2.0 * ly * u / om, rel=0.02)


def test_region_scan_deterministic_with_error_rows():
    etas = [-3.0, -5.0]
    ratios = [0.05, 1.0, 3.0]
    das = [0.4, 0.6, 1.5]
    rows1 = region_scan(10, das, etas, ratios)
    rows2 = region_scan(10, das, etas, ratios)
    assert rows1 == rows2
    assert len(rows1) == len(etas) * len(ratios) * len(das)
    keys = [(r.eta, r.ly_over_lx, r.delta_a_over_omega) for r in rows1]
    assert keys == [(e, rt, d) for e in etas for rt in ratios for d in das]
    for r in rows1:
        if r.ly_over_lx == 0.05:
            assert r.valid == "error" and r.r is None and r.q is None
        elif r.delta_a_over_omega == 1.5:
            assert r.valid == "error"
        else:
            assert r.valid in ("true", "false")
            assert r.r is not None and r.q is not None
    assert any(r.valid != "error" for r in rows1)


def test_regime_guards():
    for bad in (0.0, 0.5):
        with pytest.raises(RegimeError):
            FrustrationParams(lx=2, ly=2, delta_a=0.4, omega_at=1.0, eta=bad)
        with pytest.raises(RegimeError):
            lambda_c_spin(1.0, bad, 4)
    with pytest.raises(RegimeError):
        g_c_spin(FrustrationParams(lx=2, ly=2, delta_a=1.5, omega_at=1.0, eta=-2.0))


def test_frustrated_eigenvector_sigma_z_profile():
    # lowest frustrated one-exc state in closed form: antisymmetric over a
    # pair of columns, uniform along each column
    lx, ly = 4, 3
    geom = ArrayGeometry(lx, ly)
    c = SpinCouplings(lambda_a=0.12, lambda_b=-0.3, omega_at=1.0)
    basis = SectorBasis(geom, 1)
    h = spinmodel.build_sector_hamiltonian(geom, c, basis).to_dense()
    vec = np.zeros(basis.dim)
    support = []
    for row in range(ly):
        for col, w in ((0, 1.0), (1, -1.0)):
            s = col + lx * row
            support.append(s)
            vec[basis.bulk_rank(np.asarray([1 << s]))] = w / math.sqrt(2 * ly)
    hv = h @ vec
    e = vec @ hv
    diag = (0.5 + c.lambda_a + c.lambda_b) * (2 - lx * ly)
    assert e == pytest.approx(diag + (-2 * c.lambda_a + 2 * (ly - 1) * c.lambda_b))
    assert np.max(np.abs(hv - e * vec)) < 1e-12
    # one raised spin: <sigma^z_s> = 2 |amplitude of the state 1 << s|^2 - 1
    one_spin = basis.bulk_rank(np.int64(1) << np.arange(lx * ly))
    sz = 2.0 * vec[one_spin] ** 2 - 1.0
    for s in range(lx * ly):
        want = -1.0 + 1.0 / ly if s in support else -1.0
        assert sz[s] == pytest.approx(want, abs=1e-12)
    assert sz.sum() == pytest.approx(2 - lx * ly)


def test_photon_sector_stable_at_spin_crossing():
    # inside the valid window the spin-side transition happens while the
    # photon problem still has a strictly positive spectrum
    p = FrustrationParams(lx=10, ly=30, delta_a=0.4, omega_at=1.0, eta=-3.0)
    lam = lambda_c_spin(p.omega_at, p.eta, p.ly)
    assert photonic_spectrum(p, lam).minimum > 0.0


def test_region_scan_empty_grid():
    assert region_scan(10, [], [-3.0], [1.0]) == []
    assert region_scan(10, [0.4], [], [1.0]) == []
    assert region_scan(10, [0.4], [-3.0], []) == []
