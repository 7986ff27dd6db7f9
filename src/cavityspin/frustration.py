"""Validity analysis of the mixed frustrated/non-frustrated regime.

Rows carry a frustrated coupling (lambda_a > 0) and columns a
non-frustrated one (lambda_b = eta lambda_a < 0).  Whether a usable spin
regime exists is decided by two critical couplings: the spin crossing
0 -> 1 excitations, and the coupling where the photon vacuum destabilizes
(a quadratic-form eigenvalue turns negative).  Their ratio R and the
detuning quality factor Q map out the usable region in the
(eta, Ly/Lx) plane.

Everything is evaluated on a frozen spin background s^z per site; the
uniform background has closed-form photonic eigenvalues, the general one is
diagonalized numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import ArrayGeometry
from .params import RegimeError, delta_b_from_eta

QUALITY_MIN = 10.0


def gs_energies_01(geometry, couplings) -> tuple[float, float]:
    """Closed-form ground energies of the 0- and 1-excitation sectors."""
    from .spinmodel import one_exc_closed_spectrum  # here: the scan needs no spinmodel

    n = geometry.n_sites
    omp = couplings.omega_at_prime
    e0 = omp / 2.0 * (-n)
    spectrum = one_exc_closed_spectrum(geometry, couplings)
    e1 = omp / 2.0 * (-n + 2) + spectrum[0][0]
    return e0, e1


def lambda_c_spin(omega_at: float, eta: float, ly: int) -> float:
    """Row coupling where the first spin excitation appears: -omega/(2 eta Ly).

    Only the mixed branch (eta < 0) has this crossing at positive lambda_a.
    """
    if eta >= 0.0:
        raise RegimeError("mixed branch requires eta < 0")
    if ly < 1:
        raise ValueError("ly must be >= 1")
    return -omega_at / (2.0 * eta * ly)


@dataclass(frozen=True)
class FrustrationParams:
    """Geometry, detuning, and coupling-ratio context of the mixed regime."""

    lx: int
    ly: int
    delta_a: float
    omega_at: float
    eta: float

    def __post_init__(self) -> None:
        if self.lx < 1 or self.ly < 1:
            raise ValueError("array sides must be >= 1")
        if self.eta >= 0.0:
            raise RegimeError("mixed branch requires eta < 0")

    @property
    def delta_b(self) -> float:
        return delta_b_from_eta(self.delta_a, self.omega_at, self.eta)

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.lx, self.ly)

    def lambda_b_of(self, lambda_a: float) -> float:
        return self.eta * lambda_a


SzBackground = Union[float, np.ndarray]


def _sz_grid(params: FrustrationParams, s_z: SzBackground) -> np.ndarray:
    if np.isscalar(s_z):
        return np.full((params.ly, params.lx), float(s_z))
    arr = np.asarray(s_z, dtype=float)
    if arr.shape != (params.ly, params.lx):
        raise ValueError(f"s_z must be scalar or shape ({params.ly}, {params.lx})")
    return arr


def _mode_pencil(
    params: FrustrationParams, s_z: SzBackground
) -> tuple[np.ndarray, np.ndarray]:
    """``(d0, K)`` with mode matrix ``diag(d0) + lambda_a K``; ``d0`` holds
    the bare detunings."""
    sz = _sz_grid(params, s_z)
    eta = params.eta
    ly, lx = params.ly, params.lx
    d0 = np.repeat([params.delta_a, params.delta_b], [ly, lx])
    k = np.zeros((ly + lx, ly + lx))
    row_sums = sz.sum(axis=1)  # per row, over its lx sites
    k[np.arange(ly), np.arange(ly)] = 2.0 * row_sums
    k[ly + np.arange(lx), ly + np.arange(lx)] = 2.0 * eta * sz.sum(axis=0)
    k[:ly, ly:] = (1.0 + eta) * sz
    k[ly:, :ly] = k[:ly, ly:].T
    return d0, k


def photonic_matrix(
    params: FrustrationParams, lambda_a: float, s_z: SzBackground = -1.0
) -> np.ndarray:
    """Quadratic-form matrix of the modes on a frozen spin background.

    Ordered row modes then column modes.  Diagonal blocks hold the detuning
    shifted by the line's total s^z; the off-diagonal block couples a row
    mode to a column mode through their shared site.
    """
    d0, k = _mode_pencil(params, s_z)
    return np.diag(d0) + lambda_a * k


@dataclass(frozen=True)
class PhotonicSpectrum:
    """Mode-sector eigenvalues on a frozen background.

    Closed forms exist only for a uniform background; the numeric spectrum
    is always present.
    """

    numeric: np.ndarray  # ascending
    e_a: Optional[float] = None
    mult_a: int = 0
    e_b: Optional[float] = None
    mult_b: int = 0
    e_plus: Optional[float] = None
    e_minus: Optional[float] = None
    epsilon: Optional[float] = None
    xi: Optional[float] = None

    @property
    def closed_available(self) -> bool:
        return self.e_minus is not None

    def closed_sorted(self) -> np.ndarray:
        if not self.closed_available:
            raise ValueError("closed forms need a uniform background")
        vals = [self.e_minus, self.e_plus]
        vals += [self.e_a] * self.mult_a
        vals += [self.e_b] * self.mult_b
        return np.sort(np.asarray(vals))

    @property
    def minimum(self) -> float:
        return float(self.numeric[0])


def photonic_spectrum(
    params: FrustrationParams, lambda_a: float, s_z: SzBackground = -1.0
) -> PhotonicSpectrum:
    """Numeric spectrum of the mode matrix, plus closed forms when uniform.

    Closed forms: E_a = Delta_a + 2 lambda_a Lx s (Ly-1 fold), E_b analog
    (Lx-1 fold), and the pair (eps +- xi)/2 mixing the two uniform modes.
    """
    m = photonic_matrix(params, lambda_a, s_z)
    numeric = np.linalg.eigvalsh(m)
    sz = _sz_grid(params, s_z)
    if not np.all(sz == sz.flat[0]):
        return PhotonicSpectrum(numeric=numeric)
    s = float(sz.flat[0])
    la, lb = lambda_a, params.lambda_b_of(lambda_a)
    lx, ly = params.lx, params.ly
    da, db = params.delta_a, params.delta_b
    e_a = da + 2.0 * la * lx * s
    e_b = db + 2.0 * lb * ly * s
    eps = da + db + 2.0 * s * (la * lx + lb * ly)
    # the mixing pair diagonalizes the 2x2 block of the two uniform modes,
    # so the first term under the root is their diagonal difference
    xi = math.sqrt(
        (db - da + 2.0 * s * (lb * ly - la * lx)) ** 2
        + 4.0 * lx * ly * s * s * (la + lb) ** 2
    )
    return PhotonicSpectrum(
        numeric=numeric,
        e_a=e_a,
        mult_a=ly - 1,
        e_b=e_b,
        mult_b=lx - 1,
        e_plus=0.5 * (eps + xi),
        e_minus=0.5 * (eps - xi),
        epsilon=eps,
        xi=xi,
    )


def lambda_c_photon(
    params: FrustrationParams, *, s_z: float = -1.0
) -> Optional[float]:
    """Smallest positive row coupling where a mode eigenvalue reaches zero.

    With ``M0 + lambda K`` the mode matrix and ``M0 = diag(Delta_a, Delta_b)``
    positive, the spectrum stays positive until ``lambda = -1 / mu``, ``mu``
    the lowest eigenvalue of ``M0^-1/2 K M0^-1/2``; whichever closed branch
    crosses first is captured without case analysis.  ``None`` means
    ``mu >= 0``: no breakdown at any positive coupling.

    A line sum of K adds up to max(Lx, Ly) background values, so a ``mu``
    within that rounding of zero (measured on the pencil of ``|s_z|``)
    counts as zero rather than as a breakdown near ``1 / eps``.
    """
    sz = _sz_grid(params, s_z)
    d0, k = _mode_pencil(params, sz)
    if d0.min() <= 0.0:
        raise RegimeError("mode spectrum not positive at zero coupling")
    scale = 1.0 / np.sqrt(d0)
    mu = float(np.linalg.eigvalsh(scale[:, None] * k * scale[None, :])[0])
    k_abs = np.abs(_mode_pencil(params, np.abs(sz))[1])
    noise = (
        8.0 * max(params.lx, params.ly) * np.finfo(float).eps
        * float(np.max(np.sum(scale[:, None] * k_abs * scale[None, :], axis=1)))
    )
    return None if mu >= -noise else -1.0 / mu


def g_c_spin(params: FrustrationParams) -> float:
    """Physical coupling at the spin crossing, sqrt(-2 lam_c (Delta_a - omega)).

    Real only on the frustrated-row branch Delta_a < omega_at.
    """
    lam_c = lambda_c_spin(params.omega_at, params.eta, params.ly)
    rad = -2.0 * lam_c * (params.delta_a - params.omega_at)
    if rad < 0.0:
        raise RegimeError(
            "frustrated rows require delta_a < omega_at (negative radicand)"
        )
    return math.sqrt(rad)


@dataclass(frozen=True)
class FrustrationAnalysis:
    """Critical couplings and the usability verdict at one parameter point."""

    params: FrustrationParams
    lambda_c_spin: float
    lambda_c_photon: Optional[float]
    r: Optional[float]  # None when the photon sweep never breaks down
    r_unbounded: bool
    g_c_spin: float
    q: float
    q_min: float
    valid: bool


def quality_and_ratio(
    params: FrustrationParams, *, q_min: float = QUALITY_MIN
) -> FrustrationAnalysis:
    """Evaluate R = lambda_c^photon / lambda_c^spin and the quality factor Q.

    The point is usable when the photon breakdown sits above the spin
    crossing (R > 1) and both detunings keep a margin of at least q_min
    coupling units (Q >= q_min).
    """
    lam_spin = lambda_c_spin(params.omega_at, params.eta, params.ly)
    gc = g_c_spin(params)
    q = min(
        abs(params.delta_a - params.omega_at), abs(params.delta_b - params.omega_at)
    ) / gc
    lam_phot = lambda_c_photon(params)
    if lam_phot is None:
        r = None
        r_ok = True
        unbounded = True
    else:
        r = lam_phot / lam_spin
        r_ok = r > 1.0
        unbounded = False
    return FrustrationAnalysis(
        params=params,
        lambda_c_spin=lam_spin,
        lambda_c_photon=lam_phot,
        r=r,
        r_unbounded=unbounded,
        g_c_spin=gc,
        q=q,
        q_min=q_min,
        valid=r_ok and q >= q_min,
    )


@dataclass(frozen=True)
class RegionRow:
    """One grid point of the validity scan."""

    eta: float
    ly_over_lx: float
    delta_a_over_omega: float
    r: Optional[float]
    q: Optional[float]
    valid: str  # "true" | "false" | "error"


def _scan_point(
    lx: int, omega_at: float, q_min: float, eta: float, ratio: float, da_ratio: float
) -> RegionRow:
    try:
        ly = int(round(ratio * lx))
        if ly < 1:
            raise ValueError("ly rounds below 1")
        params = FrustrationParams(
            lx=lx, ly=ly, delta_a=da_ratio * omega_at, omega_at=omega_at, eta=eta
        )
        res = quality_and_ratio(params, q_min=q_min)
        return RegionRow(
            eta=eta,
            ly_over_lx=ratio,
            delta_a_over_omega=da_ratio,
            r=res.r,
            q=res.q,
            valid="true" if res.valid else "false",
        )
    except (RegimeError, ValueError, ArithmeticError):
        return RegionRow(
            eta=eta,
            ly_over_lx=ratio,
            delta_a_over_omega=da_ratio,
            r=None,
            q=None,
            valid="error",
        )


def region_scan(
    lx: int,
    delta_a_over_omega: Sequence[float],
    etas: Sequence[float],
    ly_over_lx: Sequence[float],
    *,
    omega_at: float = 1.0,
    q_min: float = QUALITY_MIN,
) -> list[RegionRow]:
    """Usability verdicts over the (eta, Ly/Lx, detuning) grid.

    Rows come back in grid order (eta outermost, detuning innermost); failed
    points stay in the table with empty values and valid = "error".
    """
    return [
        _scan_point(lx, omega_at, q_min, eta, ratio, da)
        for eta in etas
        for ratio in ly_over_lx
        for da in delta_a_over_omega
    ]
