"""Coherent-state mean field: closed forms against the numeric minimizer."""

import math

import numpy as np
import pytest

from cavityspin import meanfield
from cavityspin.geometry import ArrayGeometry
from cavityspin.params import RegimeError, lambda_coupling


def test_large_array_golden_point():
    geom = ArrayGeometry(18, 18)
    gc = meanfield.mf_critical_g(geom, 30.0, 1.0)
    assert gc == pytest.approx(math.sqrt(5.0 / 6.0), rel=1e-15)
    sol = meanfield.solve(geom, 2.0 * gc, 30.0, 1.0)
    assert sol.superradiant
    assert sol.alpha_sq == pytest.approx(9.0 / 32.0, rel=1e-13)
    assert sol.sigma_z == pytest.approx(-0.25, rel=1e-13)
    assert sol.n_exc == pytest.approx(121.5, rel=1e-13)
    assert sol.photons_total == pytest.approx(36.0 * 9.0 / 32.0, rel=1e-13)
    assert meanfield.mf_critical_g(
        ArrayGeometry(sol.lx, sol.ly), sol.delta, sol.omega_at
    ) == pytest.approx(gc)


def test_closed_alpha_matches_numeric_minimizer():
    rng = np.random.default_rng(23)
    for _ in range(25):
        geom = ArrayGeometry(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        delta = float(rng.uniform(0.5, 40.0))
        omega = float(rng.uniform(0.3, 3.0))
        gc = meanfield.mf_critical_g(geom, delta, omega)
        g = float(rng.uniform(0.2, 3.0)) * gc
        closed = meanfield.mf_alpha_sq(geom, g, delta, omega)
        numeric = meanfield.minimize_energy_numeric(geom, g, delta, omega)
        assert closed == pytest.approx(numeric, rel=1e-8, abs=1e-10)


def test_order_parameters_vanish_continuously_at_gc():
    geom = ArrayGeometry(4, 6)
    delta, omega = 12.0, 0.8
    gc = meanfield.mf_critical_g(geom, delta, omega)
    assert meanfield.mf_alpha_sq(geom, gc, delta, omega) == 0.0
    assert meanfield.mf_excitations(geom, gc, delta, omega) == 0.0
    just_above = gc * (1.0 + 1e-10)
    assert meanfield.mf_alpha_sq(geom, just_above, delta, omega) < 1e-8
    assert meanfield.mf_excitations(geom, just_above, delta, omega) < 1e-8


def test_excitations_match_mixing_identity():
    geom = ArrayGeometry(5, 3)
    delta, omega = 8.0, 1.1
    gc = meanfield.mf_critical_g(geom, delta, omega)
    n = geom.n_sites
    for factor in (1.2, 1.7, 2.4, 4.0):
        g = factor * gc
        gam = meanfield.mf_gamma(geom, g, delta, omega)
        via_gamma = n * gam * gam / (1.0 + gam * gam)
        assert meanfield.mf_excitations(geom, g, delta, omega) == pytest.approx(
            via_gamma, rel=1e-12
        )
        sz = meanfield.mf_sigma_z(geom, g, delta, omega)
        assert sz == pytest.approx(2.0 * via_gamma / n - 1.0, rel=1e-12)


def test_minimizer_beats_grid():
    geom = ArrayGeometry(3, 3)
    delta, omega = 5.0, 1.0
    g = 2.0 * meanfield.mf_critical_g(geom, delta, omega)
    x_star = meanfield.mf_alpha_sq(geom, g, delta, omega)
    e_star = meanfield.mf_gs_energy(x_star, geom, g, delta, omega)
    for x in np.linspace(0.0, 4.0 * x_star + 1.0, 60):
        assert e_star <= meanfield.mf_gs_energy(float(x), geom, g, delta, omega) + 1e-12


def test_normal_phase_values():
    geom = ArrayGeometry(4, 4)
    delta, omega = 10.0, 1.0
    gc = meanfield.mf_critical_g(geom, delta, omega)
    sol = meanfield.solve(geom, 0.5 * gc, delta, omega)
    assert not sol.superradiant
    assert sol.alpha_sq == 0.0
    assert sol.n_exc == 0.0
    assert sol.sigma_z == -1.0
    assert sol.energy == pytest.approx(-omega * geom.n_sites / 2.0)


def test_guards():
    geom = ArrayGeometry(2, 2)
    with pytest.raises(ValueError):
        meanfield.mf_alpha_sq(geom, -0.1, 5.0, 1.0)
    with pytest.raises(RegimeError):
        meanfield.mf_alpha_sq(geom, 0.5, -1.0, 1.0)
    with pytest.raises(RegimeError):
        meanfield.mf_critical_g(geom, 5.0, -1.0)
    with pytest.raises(RegimeError):
        meanfield.mf_gamma(geom, 0.1, 5.0, 1.0)
    with pytest.raises(ValueError):
        meanfield.mf_gs_energy(-0.5, geom, 1.0, 5.0, 1.0)


def test_large_detuning_limits():
    # far detuned, lambda = -g^2 / (2 (delta - omega)) puts g_c of an L x L
    # array at lambda_c = -omega / (4 L), and the excitation number past it
    # at N/2 (1 + omega / (4 L lambda))
    geom = ArrayGeometry(4, 4)
    delta, omega = 1e9, 1.0
    g_c = meanfield.mf_critical_g(geom, delta, omega)
    assert lambda_coupling(g_c, delta, omega) == pytest.approx(-1.0 / 16.0, rel=1e-8)
    assert meanfield.mf_excitations(geom, 0.5 * g_c, delta, omega) == 0.0
    n = 16
    for lam in (-1.0 / 8.0, -1.0, -1e3):
        g = math.sqrt(-2.0 * lam * (delta - omega))
        want = 0.5 * n * (1.0 + omega / (16.0 * lam))
        assert meanfield.mf_excitations(geom, g, delta, omega) == pytest.approx(
            want, rel=1e-8
        )
