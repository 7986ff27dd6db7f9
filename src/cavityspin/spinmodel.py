"""Effective spin model on the array, resolved into excitation sectors.

The photon-eliminated Hamiltonian conserves the number of raised spins, so
everything here works inside a :class:`~cavityspin.basis.SectorBasis`.  Its
two pieces:

* a uniform diagonal ``(omega_at/2 + [lambda_a + lambda_b]) * (2 n_exc - N)``
  coming from the splitting plus (optionally) the static coupling shift;
* an excitation-hopping interaction moving one raised spin between two sites
  that share a row (amplitude ``2 lambda_a``) or a column (``2 lambda_b``).

Ground energies per sector give level crossings (superradiant steps), and
ground vectors give two-point spin correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .basis import SectorBasis
from .geometry import ArrayGeometry
from .linalg import (
    SparseOperator,
    SpectrumResult,
    ground_state,
    operator_from_entries,
)
from .observables import CorrelationResult, multiplet_correlations, site_occupations
from .params import SpinCouplings


def build_sector_hamiltonian(
    geometry: ArrayGeometry,
    couplings: SpinCouplings,
    basis: SectorBasis,
    include_lambda_shift: bool = True,
) -> SparseOperator:
    """Sector matrix: excitation hops plus the uniform diagonal.

    Off-diagonal element between configurations differing by one excitation
    moved within a row is ``2 lambda_a``; within a column ``2 lambda_b``.
    The diagonal comes from the (optionally shifted) spin splitting; a zero
    diagonal is left out of the sparsity pattern.
    """
    if basis.geometry != geometry:
        raise ValueError("basis geometry mismatch")
    states = basis.states
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    amp = {"row": 2.0 * couplings.lambda_a, "col": 2.0 * couplings.lambda_b}
    for s, t, kind in geometry.line_pairs():
        a = amp[kind]
        if a == 0.0:
            continue
        sel = np.nonzero(((states >> s) & 1) != ((states >> t) & 1))[0]
        if len(sel) == 0:
            continue
        flip = np.int64((1 << s) | (1 << t))
        rows.append(sel)
        cols.append(basis.bulk_rank(states[sel] ^ flip))
        vals.append(np.full(len(sel), a))
    coeff = couplings.omega_at / 2.0
    if include_lambda_shift:
        coeff += couplings.lambda_a + couplings.lambda_b
    diag = coeff * (2 * basis.n_exc - geometry.n_sites)
    if diag != 0.0:
        idx = np.arange(basis.dim)
        rows.append(idx)
        cols.append(idx)
        vals.append(np.full(basis.dim, diag))
    if not rows:
        return operator_from_entries(basis.dim, [], [], [])
    return operator_from_entries(
        basis.dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def hop_count(geometry: ArrayGeometry, mask: int) -> int:
    """Number of allowed single-excitation moves out of a configuration."""
    total = 0
    for row in range(geometry.ly):
        occ = sum((mask >> s) & 1 for s in geometry.row_sites(row))
        total += occ * (geometry.lx - occ)
    for col in range(geometry.lx):
        occ = sum((mask >> s) & 1 for s in geometry.col_sites(col))
        total += occ * (geometry.ly - occ)
    return total


def sector_ground(
    geometry: ArrayGeometry,
    couplings: SpinCouplings,
    n_exc: int,
    *,
    include_lambda_shift: bool = True,
    k: int = 1,
    **solver_kwargs,
) -> tuple[SpectrumResult, SectorBasis]:
    basis = SectorBasis(geometry, n_exc)
    h = build_sector_hamiltonian(geometry, couplings, basis, include_lambda_shift)
    spec = ground_state(h, min(k, basis.dim), **solver_kwargs)
    if not spec.converged:
        raise ArithmeticError(f"sector n_exc={n_exc} ground solve did not converge")
    return spec, basis


def sector_ground_energy(
    geometry: ArrayGeometry,
    couplings: SpinCouplings,
    n_exc: int,
    include_lambda_shift: bool = True,
) -> float:
    spec, _ = sector_ground(
        geometry, couplings, n_exc, include_lambda_shift=include_lambda_shift
    )
    return spec.ground_energy


@dataclass(frozen=True)
class TransitionPoint:
    """Coupling at which the sector ground energies n -> n+1 cross."""

    n_from: int
    n_to: int
    lambda_c: float


def _sector_line(
    geometry: ArrayGeometry,
    omega_at: float,
    n_exc: int,
    sign: float,
    include_lambda_shift: bool,
) -> tuple[float, float]:
    """``(c, a)`` with sector ground energy ``c + lambda * a`` at
    ``lambda_a = lambda_b = lambda`` of the given sign.

    The sector diagonal is uniform, so the Hamiltonian is
    ``c I + |lambda| H_unit`` with ``c = omega_at/2 (2 n_exc - N)`` and
    ``H_unit`` the sector matrix at unit coupling ``sign`` and zero
    splitting.  Its ground energy is exactly linear on each side of zero.
    """
    unit = SpinCouplings(lambda_a=sign, lambda_b=sign, omega_at=0.0)
    spec, _ = sector_ground(
        geometry, unit, n_exc, include_lambda_shift=include_lambda_shift
    )
    c = omega_at / 2.0 * (2 * n_exc - geometry.n_sites)
    return c, sign * spec.ground_energy


def transition_couplings(
    geometry: ArrayGeometry,
    omega_at: float,
    *,
    lambda_min: float,
    lambda_max: float,
    include_lambda_shift: bool = True,
    max_transitions: Optional[int] = None,
    tol: Optional[float] = None,
) -> list[TransitionPoint]:
    """Sector crossings n -> n+1 inside a bracket, from exact linear energies.

    Both bracket ends must carry the same coupling sign; there every sector
    ground energy is ``c_n + lambda a_n`` (:func:`_sector_line`), so the
    crossing n -> n+1 sits at ``omega_at / (a_n - a_{n+1})``.  Sectors are
    scanned in increasing n until no crossing falls inside the bracket.
    ``tol`` is accepted and ignored: the crossings are exact.
    """
    if lambda_min >= lambda_max:
        raise ValueError("need lambda_min < lambda_max")
    if lambda_min < 0.0 < lambda_max:
        raise ValueError("bracket must not straddle lambda = 0")
    n_sites = geometry.n_sites
    cap = n_sites if max_transitions is None else min(max_transitions, n_sites)
    sign = -1.0 if lambda_max <= 0.0 else 1.0

    out: list[TransitionPoint] = []
    _, a_lo = _sector_line(geometry, omega_at, 0, sign, include_lambda_shift)
    for n in range(cap):
        _, a_hi = _sector_line(geometry, omega_at, n + 1, sign, include_lambda_shift)
        slope = a_lo - a_hi  # E_n - E_{n+1} = slope * lambda - omega_at
        flo = slope * lambda_min - omega_at
        fhi = slope * lambda_max - omega_at
        if flo * fhi <= 0.0:
            # the gap vanishes identically only for omega_at = 0, equal slopes
            lam_c = omega_at / slope if slope != 0.0 else lambda_min
            out.append(TransitionPoint(n_from=n, n_to=n + 1, lambda_c=lam_c))
        elif out:
            break  # past the last crossing inside the bracket
        a_lo = a_hi
    return out


def excitation_curve(
    geometry: ArrayGeometry,
    omega_at: float,
    lambdas: Sequence[float],
    include_lambda_shift: bool = True,
) -> list[tuple[float, int, float]]:
    """Ground-state excitation number along a coupling sweep.

    Returns ``(lambda, n_exc, energy)`` rows; ties resolve to the smaller
    sector.  Each sector is solved at most once per coupling sign.
    """
    lines: dict[tuple[float, int], tuple[float, float]] = {}
    rows = []
    for lam in lambdas:
        sign = -1.0 if lam < 0.0 else 1.0
        best_n, best_e = 0, np.inf
        for n in range(geometry.n_sites + 1):
            if (sign, n) not in lines:
                lines[sign, n] = _sector_line(
                    geometry, omega_at, n, sign, include_lambda_shift
                )
            c, a = lines[sign, n]
            e = c + lam * a + 0.0  # + 0.0 turns -0.0 into 0.0
            if e < best_e - 1e-14 * max(1.0, abs(e)):
                best_n, best_e = n, e
        rows.append((float(lam), best_n, float(best_e)))
    return rows


def correlation_ratio(
    spectrum: SpectrumResult, basis: SectorBasis
) -> CorrelationResult:
    """Average NNN/NN correlation ratio of the ground multiplet; undefined
    for the empty and the fully excited sector.

    The body is shared with ``jcmodel.jc_correlation_ratio``; neither calls
    the other, so the benchmark tracer (``perfbench/layers.py``) times each
    model's call as its own layer.
    """
    return multiplet_correlations(spectrum, basis)


def sigma_z_expectations(vectors: np.ndarray, basis: SectorBasis) -> np.ndarray:
    return 2.0 * site_occupations(vectors, basis) - 1.0


def one_exc_closed_spectrum(
    geometry: ArrayGeometry, couplings: SpinCouplings
) -> list[tuple[float, int]]:
    """Exact one-excitation interaction spectrum with multiplicities.

    The hop matrix factorizes into (all-ones minus identity) blocks along
    rows and columns, whose eigenvalues are -1 (L-1 fold) and L-1 (simple);
    the sector spectrum is the multiplicity-weighted sum of the two tables.
    """
    la, lb = couplings.lambda_a, couplings.lambda_b
    lx, ly = geometry.lx, geometry.ly
    table_a = [(-1.0, lx - 1), (float(lx - 1), 1)] if lx > 1 else [(0.0, 1)]
    table_b = [(-1.0, ly - 1), (float(ly - 1), 1)] if ly > 1 else [(0.0, 1)]
    out: dict[float, int] = {}
    for ea, ma in table_a:
        if ma == 0:
            continue
        for eb, mb in table_b:
            if mb == 0:
                continue
            val = 2.0 * la * ea + 2.0 * lb * eb
            out[val] = out.get(val, 0) + ma * mb
    return sorted(out.items())
