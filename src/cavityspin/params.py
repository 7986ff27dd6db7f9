"""Parameter chain from a driven three-level emitter down to spin couplings.

Two reduction steps, each valid in its own hierarchy of scales:

1.  Adiabatic elimination of the auxiliary excited level of each emitter
    under a classical drive (Rabi frequency ``Omega``, single-photon coupling
    ``g0``, detuning ``Delta_e``) leaves a two-level system with splitting
    ``omega_at = -Omega**2 / Delta_e`` coupled to its two cavity modes with
    strength ``g = -g0 * Omega / Delta_e``.

2.  Dispersive elimination of the photons (detunings ``Delta_a``, ``Delta_b``
    far from ``omega_at``) leaves spins with photon-mediated couplings
    ``lambda = -g**2 / (2 * (Delta - omega_at))`` along rows and columns.

Energies are measured in the frame rotating with the drive; all detunings are
relative to the drive frequency.  ``g`` is stored as a magnitude together
with a sign record since every derived quantity depends only on ``g**2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

ScalarOrPerLine = Union[float, tuple[float, ...]]

DEFAULT_ELIMINATION_RATIO = 10.0
DEFAULT_EPSILON_MAX = 0.1
DEFAULT_WEAK_RATIO = 0.1


class ResonanceError(ValueError):
    """A detuning sits on (or too close to) a pole of a closed form."""


class RegimeError(ValueError):
    """Parameters outside the regime where a closed form applies."""


class NonUniformError(ValueError):
    """A per-line parameter array is not uniform where a closed form needs it."""


def _uniform(value: ScalarOrPerLine, name: str) -> float:
    """Collapse a scalar-or-array parameter to a scalar, or raise."""
    if isinstance(value, (int, float)):
        return float(value)
    vals = tuple(float(v) for v in value)
    if not vals:
        raise ValueError(f"{name}: empty per-line array")
    if any(v != vals[0] for v in vals):
        raise NonUniformError(f"{name}: closed form requires a uniform value, got {vals}")
    return vals[0]


@dataclass(frozen=True)
class PhysicalDriveParams:
    """Raw driven-emitter parameters before any elimination."""

    omega_rabi: float
    g0: float
    delta_e: float

    def __post_init__(self) -> None:
        if self.delta_e == 0.0:
            raise ResonanceError("delta_e = 0: excited level cannot be eliminated")


@dataclass(frozen=True)
class EffectiveJCParams:
    """Two-level emitters exchanging excitations with row and column modes.

    ``delta_a`` / ``delta_b`` may be scalars or per-row / per-column tuples;
    all closed-form operations require uniform values and raise otherwise.
    ``g`` is a magnitude; ``g_sign`` records the sign that the elimination
    produced (spectra depend on ``g**2`` only).
    """

    omega_at: float
    g: float
    delta_a: ScalarOrPerLine
    delta_b: ScalarOrPerLine
    g_sign: int = 1
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.g < 0:
            raise ValueError("g is stored as a magnitude; use g_sign for the sign")
        if self.g_sign not in (-1, 1):
            raise ValueError("g_sign must be +1 or -1")

    @property
    def delta_a_uniform(self) -> float:
        return _uniform(self.delta_a, "delta_a")

    @property
    def delta_b_uniform(self) -> float:
        return _uniform(self.delta_b, "delta_b")


@dataclass(frozen=True)
class SpinCouplings:
    """Photon-mediated spin-spin couplings along rows and columns."""

    lambda_a: float
    lambda_b: float
    omega_at: float

    @property
    def eta(self) -> float:
        """Anisotropy lambda_b / lambda_a."""
        if self.lambda_a == 0.0:
            raise ZeroDivisionError("eta undefined for lambda_a = 0")
        return self.lambda_b / self.lambda_a

    @property
    def omega_at_prime(self) -> float:
        """Spin splitting shifted by the static part of the coupling terms."""
        return self.omega_at + 2.0 * (self.lambda_a + self.lambda_b)


@dataclass(frozen=True)
class RegimeTag:
    """Classification of a coupling set against the model's validity regimes."""

    frustration: str  # 'non-frustrated' | 'frustrated'
    interaction_strength: str  # 'weak' | 'strong'
    reduction_valid: Optional[bool] = None
    eps_a: Optional[float] = None
    eps_b: Optional[float] = None


def derive_effective_params(
    drive: PhysicalDriveParams,
    delta_a: ScalarOrPerLine,
    delta_b: ScalarOrPerLine,
) -> EffectiveJCParams:
    """Eliminate the auxiliary excited level of each emitter.

    Valid for ``|delta_e|`` large against both the drive and the bare photon
    coupling; violations are recorded as non-fatal warning strings on the
    returned parameters.
    """
    omega, g0, de = drive.omega_rabi, drive.g0, drive.delta_e
    omega_at = -(omega * omega) / de
    g_signed = -(g0 * omega) / de
    warns = []
    if abs(de) < DEFAULT_ELIMINATION_RATIO * max(abs(omega), abs(g0)):
        warns.append(
            f"elimination marginal: |delta_e|={abs(de):g} < "
            f"{DEFAULT_ELIMINATION_RATIO:g} * max(|omega_rabi|, |g0|)"
        )
    if abs(omega) < DEFAULT_ELIMINATION_RATIO * abs(g0):
        warns.append(
            f"strong single-photon drive: |omega_rabi|={abs(omega):g} < "
            f"{DEFAULT_ELIMINATION_RATIO:g} * |g0|"
        )
    return EffectiveJCParams(
        omega_at=omega_at,
        g=abs(g_signed),
        delta_a=delta_a,
        delta_b=delta_b,
        g_sign=-1 if g_signed < 0 else 1,
        warnings=tuple(warns),
    )


def lambda_coupling(g: float, delta: float, omega_at: float) -> float:
    """Photon-mediated coupling for one mode family, lambda = -g^2/(2(delta-omega))."""
    if delta == omega_at:
        raise ResonanceError("delta = omega_at: dispersive elimination breaks down")
    return -(g * g) / (2.0 * (delta - omega_at))


def derive_spin_couplings(jc: EffectiveJCParams) -> SpinCouplings:
    """Dispersively eliminate the photons, leaving row/column spin couplings."""
    da = jc.delta_a_uniform
    db = jc.delta_b_uniform
    return SpinCouplings(
        lambda_a=lambda_coupling(jc.g, da, jc.omega_at),
        lambda_b=lambda_coupling(jc.g, db, jc.omega_at),
        omega_at=jc.omega_at,
    )


def delta_b_from_eta(delta_a: float, omega_at: float, eta: float) -> float:
    """Column-mode detuning realizing the anisotropy lambda_b = eta * lambda_a."""
    if eta == 0.0:
        raise ValueError("eta = 0 has no finite detuning solution")
    return (delta_a - omega_at) / eta + omega_at


def validity_epsilon(jc: EffectiveJCParams) -> tuple[float, float, bool]:
    """Smallness parameters of the dispersive reduction, one per mode family.

    Returns ``(eps_a, eps_b, valid)`` with ``eps = |g / (omega_at - delta)|``
    and ``valid`` true when both fall below ``DEFAULT_EPSILON_MAX``.
    """
    da = jc.delta_a_uniform
    db = jc.delta_b_uniform
    if da == jc.omega_at or db == jc.omega_at:
        raise ResonanceError("delta = omega_at: epsilon diverges")
    eps_a = abs(jc.g / (jc.omega_at - da))
    eps_b = abs(jc.g / (jc.omega_at - db))
    return eps_a, eps_b, (eps_a < DEFAULT_EPSILON_MAX and eps_b < DEFAULT_EPSILON_MAX)


def classify_regime(
    couplings: SpinCouplings, *, epsilons: Optional[tuple[float, float]] = None
) -> RegimeTag:
    """Tag couplings as (non-)frustrated and weak/strong.

    Non-frustrated means both couplings negative (every bond can be satisfied
    simultaneously).  Weak means both magnitudes below
    ``DEFAULT_WEAK_RATIO`` times the spin splitting ``omega_at``.
    """
    frustration = (
        "non-frustrated"
        if (couplings.lambda_a < 0.0 and couplings.lambda_b < 0.0)
        else "frustrated"
    )
    lam_max = max(abs(couplings.lambda_a), abs(couplings.lambda_b))
    weak = lam_max < DEFAULT_WEAK_RATIO * abs(couplings.omega_at)
    strength = "weak" if weak else "strong"
    tag_valid: Optional[bool] = None
    eps_a = eps_b = None
    if epsilons is not None:
        eps_a, eps_b = epsilons
        tag_valid = eps_a < DEFAULT_EPSILON_MAX and eps_b < DEFAULT_EPSILON_MAX
    return RegimeTag(
        frustration=frustration,
        interaction_strength=strength,
        reduction_valid=tag_valid,
        eps_a=eps_a,
        eps_b=eps_b,
    )


def analyze(jc: EffectiveJCParams) -> tuple[SpinCouplings, RegimeTag]:
    """Derive couplings and classify them in one step."""
    couplings = derive_spin_couplings(jc)
    eps_a, eps_b, _ = validity_epsilon(jc)
    tag = classify_regime(couplings, epsilons=(eps_a, eps_b))
    return couplings, tag
