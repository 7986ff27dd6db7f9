"""Coherent-state mean-field treatment of the array in the large-N limit.

All row and column modes are replaced by coherent states with a common
amplitude alpha (the symmetric ansatz is exact for the uniform array), and
the photon-averaged spin problem factorizes over sites.  The variational
energy

    E(x) = Delta (Lx + Ly) x - Lx Ly sqrt((omega_at/2)^2 + 4 g^2 x),
    x = |alpha|^2

has either x = 0 or the macroscopic stationary point as its minimum; the
switch defines the superradiant critical coupling.  These closed forms are
the thermodynamic-limit benchmark for the finite-size diagonalization
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ArrayGeometry
from .params import RegimeError


def mf_gs_energy(
    alpha_sq: float, geometry: ArrayGeometry, g: float, delta: float, omega_at: float
) -> float:
    """Variational ground energy at photon density |alpha|^2 per mode."""
    if alpha_sq < 0.0:
        raise ValueError("|alpha|^2 must be >= 0")
    lx, ly = geometry.lx, geometry.ly
    root = math.sqrt((omega_at / 2.0) ** 2 + 4.0 * g * g * alpha_sq)
    return delta * (lx + ly) * alpha_sq - lx * ly * root


def mf_critical_g(geometry: ArrayGeometry, delta: float, omega_at: float) -> float:
    """Superradiant critical coupling sqrt(Delta omega (Lx+Ly) / (4 Lx Ly))."""
    lx, ly = geometry.lx, geometry.ly
    rad = delta * omega_at * (lx + ly) / (4.0 * lx * ly)
    if rad < 0.0:
        raise RegimeError(
            "delta and omega_at of opposite sign: normal phase is never stable"
        )
    return math.sqrt(rad)


def mf_alpha_sq(
    geometry: ArrayGeometry, g: float, delta: float, omega_at: float
) -> float:
    """Stable photon density: 0 below the critical coupling, else the
    macroscopic stationary point."""
    if g < 0.0:
        raise ValueError("coupling g must be >= 0")
    if delta <= 0.0:
        raise RegimeError("photon energy must be positive for a stable minimum")
    if g <= mf_critical_g(geometry, delta, omega_at):
        return 0.0
    lx, ly = geometry.lx, geometry.ly
    return (lx * ly * g / (delta * (lx + ly))) ** 2 - (omega_at / (4.0 * g)) ** 2


def mf_excitations(
    geometry: ArrayGeometry, g: float, delta: float, omega_at: float
) -> float:
    """Macroscopic spin excitation number N/2 (1 - (g_c/g)^2), 0 below g_c."""
    gc = mf_critical_g(geometry, delta, omega_at)
    if g <= gc:
        return 0.0
    n = geometry.n_sites
    return 0.5 * n * (1.0 - (gc / g) ** 2)


def mf_gamma(geometry: ArrayGeometry, g: float, delta: float, omega_at: float) -> float:
    """Mixing amplitude of the raised component in the product ground state.

    Defined only in the superradiant phase (alpha_s != 0).
    """
    a2 = mf_alpha_sq(geometry, g, delta, omega_at)
    if a2 <= 0.0:
        raise RegimeError("gamma undefined in the normal phase (alpha = 0)")
    root = math.sqrt((omega_at / 2.0) ** 2 + 4.0 * g * g * a2)
    return (omega_at / 2.0 - root) / (2.0 * g * math.sqrt(a2))


def mf_sigma_z(geometry: ArrayGeometry, g: float, delta: float, omega_at: float) -> float:
    """Per-site <sigma^z> of the product state, (gamma^2 - 1)/(gamma^2 + 1)."""
    gc = mf_critical_g(geometry, delta, omega_at)
    if g <= gc:
        return -1.0
    gam = mf_gamma(geometry, g, delta, omega_at)
    return (gam * gam - 1.0) / (gam * gam + 1.0)


@dataclass(frozen=True)
class MeanFieldSolution:
    """Closed-form mean-field state of the array at one coupling."""

    g: float
    delta: float
    omega_at: float
    lx: int
    ly: int
    superradiant: bool
    alpha_sq: float
    energy: float
    n_exc: float
    sigma_z: float
    photons_total: float  # (Lx + Ly) |alpha|^2


def solve(geometry: ArrayGeometry, g: float, delta: float, omega_at: float) -> MeanFieldSolution:
    """Evaluate all mean-field observables at one coupling."""
    a2 = mf_alpha_sq(geometry, g, delta, omega_at)
    return MeanFieldSolution(
        g=g,
        delta=delta,
        omega_at=omega_at,
        lx=geometry.lx,
        ly=geometry.ly,
        superradiant=a2 > 0.0,
        alpha_sq=a2,
        energy=mf_gs_energy(a2, geometry, g, delta, omega_at),
        n_exc=mf_excitations(geometry, g, delta, omega_at),
        sigma_z=mf_sigma_z(geometry, g, delta, omega_at),
        photons_total=(geometry.lx + geometry.ly) * a2,
    )


def minimize_energy_numeric(
    geometry: ArrayGeometry, g: float, delta: float, omega_at: float
) -> float:
    """Numerical minimizer of the variational energy over x = |alpha|^2.

    The energy is convex in x and its slope is increasing, so the minimum
    is located by bisecting the sign change of dE/dx; the algebraic
    stationary-point formula is never consulted.  Comparing function values
    directly (golden section) would stop at sqrt(machine-eps) accuracy,
    which is why the derivative is bisected instead.
    """
    lx, ly = geometry.lx, geometry.ly

    def slope(x: float) -> float:
        root = math.sqrt((omega_at / 2.0) ** 2 + 4.0 * g * g * x)
        return delta * (lx + ly) - 2.0 * lx * ly * g * g / root

    if slope(0.0) >= 0.0:
        return 0.0
    hi = 1.0
    while slope(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e30:
            raise RuntimeError("variational energy has no interior minimum")
    lo = 0.0
    while hi - lo > 1e-14 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
