"""Effective spin model on the array, resolved into excitation sectors.

The photon-eliminated Hamiltonian conserves the number of raised spins.  In
a sector it is a uniform diagonal ``(omega_at/2 + [lambda_a + lambda_b]) *
(2 n_exc - N)`` (the splitting plus, optionally, the static coupling shift)
and hops of one raised spin to a site of its row (``2 lambda_a``) or column
(``2 lambda_b``), the moves of ``basis.line_moves``.  Ground energies per
sector give level crossings, ground vectors two-point spin correlations.

With both couplings negative every hop is negative and the hop graph of a
sector ``0 < n_exc < N`` is connected, so by Perron-Frobenius the sector
ground state is unique and invariant under every row and column permutation.
Past the route floor ``canonical.FLOOR`` :func:`sector_ground` solves that
pair on the block of normalized orbit sums under S_Ly x S_Lx (159 classes for
the 184 756 states of 5x4 n=10), built from the entries out of the
representatives of ``canonical.symmetric_sector``, and returns the block
vector with its classes; only the row budget ``basis.MAX_ROWS`` bounds it.
Every other case is solved on the full sector matrix, counted against the
same budget.  Either way a solve returns the whole ground cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from .basis import SectorBasis, check_rows, line_moves
from .canonical import SymmetricSector, block_ground, symmetric_sector, takes_orbit_block
from .geometry import ArrayGeometry
from .linalg import (
    SparseOperator,
    SpectrumResult,
    ground_state,
    operator_from_entries,
)
from .observables import CorrelationResult, multiplet_correlations
from .params import SpinCouplings


def _diagonal(
    geometry: ArrayGeometry,
    couplings: SpinCouplings,
    n_exc: int,
    include_lambda_shift: bool,
) -> float:
    """The uniform sector diagonal: the (optionally shifted) splitting."""
    coeff = couplings.omega_at / 2.0
    if include_lambda_shift:
        coeff += couplings.lambda_a + couplings.lambda_b
    return coeff * (2 * n_exc - geometry.n_sites)


def _hop_pairs(geometry: ArrayGeometry, couplings: SpinCouplings) -> int:
    """The site pairs on lines that carry a hop: each gives a state at most
    one move, and a sector 2 C(N - 2, n - 1) moves."""
    rows = geometry.ly * comb(geometry.lx, 2) * (couplings.lambda_a != 0.0)
    return rows + geometry.lx * comb(geometry.ly, 2) * (couplings.lambda_b != 0.0)


def _sector_entries(
    geometry: ArrayGeometry,
    couplings: SpinCouplings,
    states: np.ndarray,
    n_exc: int,
    shift: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sector matrix entries out of the given sector states: the index in
    ``states`` of each entry's row, the mask of its column and its value.

    Row hops weigh ``2 lambda_a``, column hops ``2 lambda_b``, and the
    diagonal is the (optionally shifted) splitting; zero terms are left out.
    """
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0)]
    for kind, a in (("row", 2.0 * couplings.lambda_a), ("col", 2.0 * couplings.lambda_b)):
        if a == 0.0:
            continue
        src, dst = line_moves(geometry, states, kind)
        rows.append(src)
        cols.append(dst)
        vals.append(np.full(len(src), a))
    diag = _diagonal(geometry, couplings, n_exc, shift)
    if diag != 0.0:
        rows.append(np.arange(len(states)))
        cols.append(states)
        vals.append(np.full(len(states), diag))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


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
    n, k = geometry.n_sites, basis.n_exc
    hops = 2 * _hop_pairs(geometry, couplings) * comb(max(n - 2, 0), k - 1) if k else 0
    check_rows(basis.dim + hops, "sector matrix")
    rows, cols, vals = _sector_entries(
        geometry, couplings, basis.states, basis.n_exc, include_lambda_shift
    )
    return operator_from_entries(basis.dim, rows, basis.bulk_rank(cols), vals)


def _perron_frobenius_sector(
    geometry: ArrayGeometry, couplings: SpinCouplings, n_exc: int
) -> bool:
    """True when the sector ground state is provably simple and symmetric.

    With both couplings negative every hop is negative, and for
    ``0 < n_exc < N`` the rook-move hop graph of the sector is connected.
    By Perron-Frobenius the ground state is then unique with positive
    amplitudes, so every row and column permutation leaves it invariant.
    """
    return (
        couplings.lambda_a < 0.0
        and couplings.lambda_b < 0.0
        and 0 < n_exc < geometry.n_sites
    )


def sector_ground(
    geometry: ArrayGeometry,
    couplings: SpinCouplings,
    n_exc: int,
    *,
    include_lambda_shift: bool = True,
    seed: int = 0,
) -> tuple[SpectrumResult, SectorBasis | SymmetricSector]:
    """Every copy of the ground level of a sector, and the basis its
    vectors live in: a Perron-Frobenius pair past the size rule
    ``canonical.takes_orbit_block`` is solved on the orbit block, its vector
    on the classes of a :class:`~cavityspin.canonical.SymmetricSector`;
    every other case on the full matrix of a :class:`~cavityspin.basis.SectorBasis`.
    """
    if _perron_frobenius_sector(geometry, couplings, n_exc) and takes_orbit_block(
        comb(geometry.n_sites, n_exc)
    ):
        basis = symmetric_sector(geometry, n_exc)
        check_rows(len(basis.sizes) * (1 + _hop_pairs(geometry, couplings)), "orbit block")
        src, dst, vals = _sector_entries(
            geometry, couplings, basis.representatives, n_exc, include_lambda_shift
        )
        spec = block_ground(basis.sizes, src, basis.classify(dst), vals, seed)
    else:
        basis = SectorBasis(geometry, n_exc)
        h = build_sector_hamiltonian(geometry, couplings, basis, include_lambda_shift)
        spec = ground_state(h, seed=seed)
    if not spec.converged:
        raise ArithmeticError(f"sector n_exc={n_exc} ground solve did not converge")
    return spec, basis


def sector_ground_energy(
    geometry: ArrayGeometry, couplings: SpinCouplings, n_exc: int
) -> float:
    return sector_ground(geometry, couplings, n_exc)[0].ground_energy


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
) -> list[TransitionPoint]:
    """Sector crossings n -> n+1 inside a bracket, from exact linear energies.

    Both bracket ends must carry the same coupling sign; there every sector
    ground energy is ``c_n + lambda a_n`` (:func:`_sector_line`), so the
    crossing n -> n+1 sits at ``omega_at / (a_n - a_{n+1})``.  Sectors are
    scanned in increasing n until no crossing falls inside the bracket.
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
        sign = -1.0 if lam <= 0.0 else 1.0  # at zero both lines give c
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
    spectrum: SpectrumResult, basis: SectorBasis | SymmetricSector
) -> CorrelationResult:
    """Average NNN/NN correlation ratio of the ground multiplet; undefined
    for the empty and the fully excited sector.  A routed sector is read on
    its class vector, one row per class, by the kernel of full vectors.

    The body is shared with ``jcmodel.jc_correlation_ratio``; neither calls
    the other, so the benchmark tracer (``perfbench/layers.py``) times each
    model's call as its own layer.
    """
    return multiplet_correlations(spectrum, basis)


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
