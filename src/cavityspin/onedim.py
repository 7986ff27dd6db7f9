"""Closed-form solution of the one-row, single-mode effective model.

With one mode and all-to-all spin coupling the Hamiltonian is a function of
collective angular momentum:

    H = Delta n + (omega_at + 4 lambda n) J^z + 2 lambda J^+ J^-

so every (J, m, n) sector is an energy level:

    E(J, m, n) = Delta n + (omega_at + 4 lambda n) m
                 + 2 lambda [J(J+1) - m(m-1)]

The photon-number coefficient ``Delta + 4 lambda m`` decides between a
finite-photon ground state (n = 0) and an unbounded photon branch.  Spin
ground-state rearrangements m -> m+1 happen at couplings lambda = omega/(4m),
giving the critical-coupling ladder of the one-row array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import RegimeError


def energy_1d(
    j: float, m: float, n: int, delta: float, omega_at: float, lam: float
) -> float:
    """Energy of the (j, m, n) level of the single-mode collective model."""
    return (
        delta * n
        + (omega_at + 4.0 * lam * n) * m
        + 2.0 * lam * (j * (j + 1.0) - m * (m - 1.0))
    )


def photon_branch(delta: float, lam: float, m: float) -> str:
    """'finite', 'divergent', or 'marginal' photon behavior at spin projection m.

    The energy is linear in n with slope ``delta + 4 lambda m``; a negative
    slope makes the photon number unbounded.
    """
    slope = delta + 4.0 * lam * m
    if slope > 0.0:
        return "finite"
    if slope < 0.0:
        return "divergent"
    return "marginal"


SIGN_TABLE_ROWS: tuple[tuple[int, int, int, str], ...] = (
    # (omega_sign, lambda_sign, delta_sign, outcome)
    (1, 1, 1, "no-transition"),
    (1, 1, -1, "photon-divergence"),
    (1, -1, 1, "spin-transition-series"),
    (-1, -1, -1, "spin-transition-series"),
    (-1, -1, 1, "photon-divergence"),
    (-1, 1, -1, "no-transition"),
)


@dataclass(frozen=True)
class Phase1D:
    """Sign-pattern classification of the single-mode model."""

    outcome: str  # 'spin-transition-series' | 'no-transition' | 'photon-divergence'
    omega_sign: int
    lambda_sign: int
    delta_sign: int
    detuning_sign: int  # sign of delta - omega_at
    ground_configuration: str  # spin state at vanishing coupling


def classify_1d(omega_at: float, lam: float, delta: float) -> Phase1D:
    """Classify the coupling-sweep behavior from parameter signs alone.

    The coupling inherits its sign from the detuning
    (``lambda = -g^2 / (2 (delta - omega_at))``), so only sign patterns with
    ``sign(lambda) = -sign(delta - omega_at)`` are reachable; others raise.
    Zero parameters are marginal and are reported as errors rather than
    silently classified.
    """
    if omega_at == 0.0 or lam == 0.0 or delta == 0.0:
        raise ValueError("marginal case: zero parameter has no sign class")
    if delta == omega_at:
        raise ValueError("marginal case: delta = omega_at")
    s_o = 1 if omega_at > 0 else -1
    s_l = 1 if lam > 0 else -1
    s_d = 1 if delta > 0 else -1
    s_det = 1 if delta - omega_at > 0 else -1
    if s_l != -s_det:
        raise RegimeError(
            "sign(lambda) must oppose sign(delta - omega_at) for a "
            "photon-mediated coupling"
        )
    # the sign rule leaves exactly the six patterns of the table
    outcome = {row[:3]: row[3] for row in SIGN_TABLE_ROWS}[s_o, s_l, s_d]
    return Phase1D(
        outcome=outcome,
        omega_sign=s_o,
        lambda_sign=s_l,
        delta_sign=s_d,
        detuning_sign=s_det,
        ground_configuration="all-lowered" if s_o > 0 else "all-raised",
    )


@dataclass(frozen=True)
class Ground1D:
    """Ground configuration of the single-mode model at given parameters."""

    m_star: float
    n_star: int
    photon_behavior: str  # finite / divergent / marginal at m_star
    n_exc: float
    energy: float


def ground_state_1d(
    n_spins: int, delta: float, omega_at: float, lam: float
) -> Ground1D:
    """Minimize the closed-form energy over m at n = 0, in the top multiplet.

    The photon branch is then checked at the minimizing projection; a
    divergent branch means the zero-photon result is only a restricted
    minimum.
    """
    j = n_spins / 2.0
    best_m, best_e = -j, math.inf
    m = -j
    while m <= j:
        e = energy_1d(j, m, 0, delta, omega_at, lam)
        if e < best_e:
            best_m, best_e = m, e
        m += 1.0
    branch = photon_branch(delta, lam, best_m)
    return Ground1D(
        m_star=best_m,
        n_star=0,
        photon_behavior=branch,
        n_exc=best_m + j,
        energy=best_e,
    )


def multiplet_count(n_spins: int, j: float) -> int:
    """Number of spin-(j) irreducible blocks in N spin-1/2 sites."""
    k = n_spins / 2.0 - j
    if k % 1 or k < 0:
        raise ValueError(f"j={j} invalid for {n_spins} spins")
    k = int(k)
    first = math.comb(n_spins, k)
    second = math.comb(n_spins, k - 1) if k >= 1 else 0
    return first - second


def sector_level_list(
    n_spins: int, m: float, n: int, delta: float, omega_at: float, lam: float
) -> list[float]:
    """All closed-form energies of the (m, n) block, with multiplicities."""
    out: list[float] = []
    j = abs(m)
    while j <= n_spins / 2.0 + 1e-9:
        mult = multiplet_count(n_spins, j)
        if mult:
            out.extend([energy_1d(j, m, n, delta, omega_at, lam)] * mult)
        j += 1.0
    return sorted(out)
