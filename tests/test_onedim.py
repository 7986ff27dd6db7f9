"""Closed-form single-mode collective model: levels, branches, sign table."""

import math

import pytest

from cavityspin import onedim
from cavityspin.params import RegimeError, lambda_coupling


def test_energy_levels_by_hand():
    # delta*n + (omega + 4 lam n) m + 2 lam (j(j+1) - m(m-1))
    assert onedim.energy_1d(1, 0, 2, 2.0, 1.0, 0.25) == pytest.approx(5.0)
    assert onedim.energy_1d(2, -1, 1, 0.3, 0.7, -0.2) == pytest.approx(-1.2)
    assert onedim.energy_1d(0, 0, 0, 5.0, 3.0, 9.0) == 0.0


def test_photon_branch_slope():
    assert onedim.photon_branch(2.0, -0.1, 3.0) == "finite"
    assert onedim.photon_branch(1.0, -0.5, 1.0) == "divergent"
    assert onedim.photon_branch(2.0, -0.5, 1.0) == "marginal"


def test_critical_g_photon_closed_form():
    # the saturated state m = N/2 softens its photon branch, slope
    # delta + 4 lambda N/2 = 0, at g_c = sqrt(delta (delta - omega) / N)
    n, delta, omega = 9, 30.0, 1.0
    g_c = math.sqrt(delta * (delta - omega)) / math.sqrt(n)
    for g, branch in ((g_c * (1 - 1e-9), "finite"), (g_c * (1 + 1e-9), "divergent")):
        lam = lambda_coupling(g, delta, omega)
        assert onedim.photon_branch(delta, lam, n / 2.0) == branch
    # delta (delta - omega) < 0: the coupling is repulsive and never softens it
    for g in (0.1, 1.0, 10.0):
        lam = lambda_coupling(g, 0.5, omega)
        assert onedim.photon_branch(0.5, lam, n / 2.0) == "finite"


def test_lambda_c_spin_ladder():
    # the ground projection steps m -> m + 1 at lambda = omega / (4 m)
    n, delta, omega = 6, 2.0, 1.0
    for m in (-3.0, -2.0, -1.0):
        lam_c = omega / (4.0 * m)
        before = onedim.ground_state_1d(n, delta, omega, lam_c * (1 - 1e-9))
        after = onedim.ground_state_1d(n, delta, omega, lam_c * (1 + 1e-9))
        assert (before.m_star, after.m_star) == (m, m + 1)


def test_levels_cross_exactly_at_lambda_c():
    n, delta, omega = 6, 2.0, 1.0
    j = n / 2.0
    for m in (-3.0, -2.0, -1.0):
        lam_c = omega / (4.0 * m)
        lhs = onedim.energy_1d(j, m, 0, delta, omega, lam_c)
        rhs = onedim.energy_1d(j, m + 1, 0, delta, omega, lam_c)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_critical_g_spin_physical_coupling():
    # the first crossing m = -N/2 at lambda_c = -omega / (2 N) is reached at
    # g_c = sqrt(-2 lambda_c (delta - omega)), only when delta > omega
    n, delta, omega = 6, 2.0, 1.0
    lam_c = omega / (4.0 * (-n / 2.0))
    g_c = math.sqrt(-2.0 * lam_c * (delta - omega))
    assert lambda_coupling(g_c, delta, omega) == pytest.approx(lam_c, rel=1e-14)
    below, above = (
        onedim.ground_state_1d(n, delta, omega, lambda_coupling(g, delta, omega))
        for g in (0.99 * g_c, 1.01 * g_c)
    )
    assert (below.m_star, above.m_star) == (-3.0, -2.0)
    # delta < omega makes the coupling repulsive: no crossing at any g
    repulsive = lambda_coupling(g_c, 0.5, omega)
    assert repulsive > 0.0
    assert onedim.classify_1d(omega, repulsive, 0.5).outcome == "no-transition"


def _params_for_row(s_o, s_l, s_d):
    omega = s_o * 1.0
    for delta in (0.5, 2.0, -0.5, -2.0):
        if (1 if delta > 0 else -1) != s_d:
            continue
        det = delta - omega
        if det == 0.0:
            continue
        if (1 if -det > 0 else -1) == s_l:
            return omega, s_l * 0.2, delta
    raise AssertionError("no parameters realize this sign row")


def test_sign_table_rows_all_reachable():
    for s_o, s_l, s_d, outcome in onedim.SIGN_TABLE_ROWS:
        omega, lam, delta = _params_for_row(s_o, s_l, s_d)
        phase = onedim.classify_1d(omega, lam, delta)
        assert phase.outcome == outcome
        assert phase.omega_sign == s_o
        assert phase.lambda_sign == s_l
        assert phase.delta_sign == s_d
        assert phase.ground_configuration == (
            "all-lowered" if s_o > 0 else "all-raised"
        )


def test_classify_rejects_unreachable_and_marginal():
    # coupling sign must oppose the detuning sign
    with pytest.raises(RegimeError):
        onedim.classify_1d(1.0, 0.1, 2.0)
    with pytest.raises(ValueError):
        onedim.classify_1d(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        onedim.classify_1d(0.0, -0.1, 2.0)
    with pytest.raises(ValueError):
        onedim.classify_1d(1.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        onedim.classify_1d(1.0, -0.1, 1.0)


def test_ground_state_against_brute_force():
    cases = [
        (5, 3.0, 1.0, -0.6),
        (4, 3.0, 1.0, -0.05),
        (4, 3.0, 1.0, -0.2),
        (4, -1.0, 1.0, 0.2),
        (3, 0.4, -1.0, 0.3),
    ]
    for n, delta, omega, lam in cases:
        g = onedim.ground_state_1d(n, delta, omega, lam)
        j = n / 2.0
        ms = [-j + k for k in range(n + 1)]
        energies = [onedim.energy_1d(j, m, 0, delta, omega, lam) for m in ms]
        best = min(range(len(ms)), key=lambda i: energies[i])
        assert g.m_star == pytest.approx(ms[best])
        assert g.energy == pytest.approx(energies[best], rel=1e-14)
        assert g.n_star == 0
        assert g.n_exc == pytest.approx(g.m_star + j)
        assert g.photon_behavior == onedim.photon_branch(delta, lam, g.m_star)


def test_ground_state_between_known_crossings():
    # N = 4, omega = 1: rearrangements at lambda = -1/8 and -1/4
    assert onedim.ground_state_1d(4, 3.0, 1.0, -0.05).m_star == -2.0
    assert onedim.ground_state_1d(4, 3.0, 1.0, -0.2).m_star == -1.0
    assert onedim.ground_state_1d(4, 3.0, 1.0, -0.3).m_star == 0.0


def test_multiplet_counts_resolve_identity():
    for n in range(2, 7):
        total = 0
        j = n / 2.0
        while j >= -1e-9:
            if j >= 0:
                total += onedim.multiplet_count(n, j) * int(2 * j + 1)
            j -= 1.0
        assert total == 2**n
    assert onedim.multiplet_count(4, 2) == 1
    assert onedim.multiplet_count(4, 0) == 2
    with pytest.raises(ValueError):
        onedim.multiplet_count(4, 1.5)


def test_sector_level_list_contents():
    levels = onedim.sector_level_list(4, 0.0, 1, 2.0, 1.0, -0.3)
    # j = 0 (x2), 1 (x3), 2 (x1)
    assert len(levels) == 6
    assert levels == sorted(levels)
    for j, mult in [(0, 2), (1, 3), (2, 1)]:
        e = onedim.energy_1d(j, 0.0, 1, 2.0, 1.0, -0.3)
        assert sum(1 for v in levels if abs(v - e) < 1e-12) == mult
