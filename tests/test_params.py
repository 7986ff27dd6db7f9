"""Parameter chain: drive -> effective JC -> spin couplings."""

import math

import numpy as np
import pytest

from cavityspin.geometry import ArrayGeometry
from cavityspin.jcmodel import mode_detunings
from cavityspin.params import (
    EffectiveJCParams,
    NonUniformError,
    PhysicalDriveParams,
    ResonanceError,
    SpinCouplings,
    analyze,
    classify_regime,
    delta_b_from_eta,
    derive_effective_params,
    derive_spin_couplings,
    lambda_coupling,
    validity_epsilon,
)


def test_two_level_reduction_values():
    drive = PhysicalDriveParams(omega_rabi=3.0, g0=0.2, delta_e=-60.0)
    jc = derive_effective_params(drive, delta_a=1.0, delta_b=1.0)
    assert jc.omega_at == pytest.approx(0.15, abs=1e-15)  # -Omega^2/delta_e
    assert jc.g == pytest.approx(0.01, abs=1e-15)  # |-g0*Omega/delta_e|
    assert jc.g_sign == 1
    assert jc.warnings == ()


def test_reduction_sign_bookkeeping():
    drive = PhysicalDriveParams(omega_rabi=3.0, g0=0.2, delta_e=60.0)
    jc = derive_effective_params(drive, 1.0, 1.0)
    assert jc.omega_at == pytest.approx(-0.15)
    assert jc.g > 0 and jc.g_sign == -1
    with pytest.raises(ValueError):
        EffectiveJCParams(omega_at=1.0, g=-0.1, delta_a=1.0, delta_b=1.0)
    with pytest.raises(ValueError):
        EffectiveJCParams(omega_at=1.0, g=0.1, delta_a=1.0, delta_b=1.0, g_sign=0)


def test_reduction_warnings_trigger():
    jc = derive_effective_params(
        PhysicalDriveParams(omega_rabi=3.0, g0=0.2, delta_e=-5.0), 1.0, 1.0
    )
    assert any("elimination marginal" in w for w in jc.warnings)
    jc = derive_effective_params(
        PhysicalDriveParams(omega_rabi=0.01, g0=0.2, delta_e=-60.0), 1.0, 1.0
    )
    assert any("single-photon drive" in w for w in jc.warnings)


def test_excited_level_on_resonance_rejected():
    with pytest.raises(ResonanceError):
        PhysicalDriveParams(omega_rabi=3.0, g0=0.2, delta_e=0.0)


def test_lambda_coupling_closed_form():
    assert lambda_coupling(0.1, 2.0, 1.0) == pytest.approx(-0.005, rel=1e-14)
    assert lambda_coupling(0.1, 0.5, 1.0) == pytest.approx(0.01, rel=1e-14)
    with pytest.raises(ResonanceError):
        lambda_coupling(0.1, 1.0, 1.0)


def test_spin_couplings_from_jc():
    jc = EffectiveJCParams(omega_at=1.0, g=0.2, delta_a=3.0, delta_b=0.6)
    c = derive_spin_couplings(jc)
    assert c.lambda_a == pytest.approx(-0.04 / 4.0)
    assert c.lambda_b == pytest.approx(0.04 / 0.8)
    assert c.eta == pytest.approx(c.lambda_b / c.lambda_a)
    assert c.omega_at_prime == pytest.approx(1.0 + 2.0 * (c.lambda_a + c.lambda_b))


def test_delta_b_realizes_requested_anisotropy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        omega = float(rng.uniform(0.2, 2.0))
        delta_a = float(rng.uniform(0.1, 3.0))
        if abs(delta_a - omega) < 1e-3:
            continue
        eta = float(rng.uniform(-5.0, 5.0))
        if abs(eta) < 1e-3:
            continue
        db = delta_b_from_eta(delta_a, omega, eta)
        g = float(rng.uniform(0.01, 0.2))
        la = lambda_coupling(g, delta_a, omega)
        lb = lambda_coupling(g, db, omega)
        assert lb == pytest.approx(eta * la, rel=1e-12)
    with pytest.raises(ValueError):
        delta_b_from_eta(1.0, 2.0, 0.0)


def test_validity_epsilon_and_regime_tags():
    jc = EffectiveJCParams(omega_at=1.0, g=0.05, delta_a=2.0, delta_b=0.4)
    eps_a, eps_b, ok = validity_epsilon(jc)
    assert eps_a == pytest.approx(0.05)
    assert eps_b == pytest.approx(0.05 / 0.6)
    assert ok
    couplings, tag = analyze(jc)
    assert tag.frustration == "frustrated"  # lambda_b > 0
    assert tag.interaction_strength == "weak"
    assert tag.reduction_valid is True

    c = SpinCouplings(lambda_a=-0.4, lambda_b=-0.3, omega_at=1.0)
    tag = classify_regime(c)
    assert tag.frustration == "non-frustrated"
    assert tag.interaction_strength == "strong"


def test_per_line_couplings_and_uniformity_guard():
    # per-line detunings reach the lattice model through its one expander,
    # row modes first; only the closed forms need them uniform
    jc = EffectiveJCParams(
        omega_at=1.0, g=0.1, delta_a=(2.0, 3.0), delta_b=(0.5, 0.6, 0.7)
    )
    deltas = mode_detunings(ArrayGeometry(3, 2), jc)
    lams = [lambda_coupling(jc.g, d, jc.omega_at) for d in deltas]
    assert len(lams) == 2 + 3
    assert lams[0] == pytest.approx(lambda_coupling(0.1, 2.0, 1.0))
    assert lams[4] == pytest.approx(lambda_coupling(0.1, 0.7, 1.0))
    with pytest.raises(ValueError):
        mode_detunings(ArrayGeometry(2, 2), jc)
    with pytest.raises(NonUniformError):
        _ = jc.delta_a_uniform
