"""Exact diagonalization of the light-matter model on the array.

Spins sit at row/column intersections; every row has its own mode, every
column too (modes ``0 .. ly-1`` the rows, ``ly .. ly+lx-1`` the columns).
The exchange conserves the total excitation number (raised spins plus
photons), so the space splits into sectors labelled by that total.  No mode
can hold more quanta than the sector total, so a per-mode cutoff
``n_max >= n_total`` leaves the sector matrix exact.  Photon configurations
are ranked through base-``n_max+1`` packed int64 keys; a block whose keys
would not fit int64 is refused.  One entry builder, :func:`_jc_entries`,
gives the matrix entries out of any list of states.

With g > 0 and scalar detunings the ground state of an untruncated sector
is simple and invariant under S_Ly x S_Lx acting on sites and line modes
together.  Past the route floor ``canonical.FLOOR`` :func:`jc_sector_ground`
and :func:`superradiant_critical_g` solve it on the block of normalized orbit
sums (114 classes for the 2016 states of 3x3 n_total=4), grown from the spin
levels (``canonical.symmetric_jc_sector``) into the ``SymmetricSector`` type
of a spin sector, with no :class:`JCBasis`.  Every other sector is solved on
:func:`build_jc_hamiltonian`.  Both routes count their rows against
``basis.MAX_ROWS`` before they allocate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np

from .basis import check_rows, enumerate_masks
from .canonical import (
    SymmetricSector,
    block_ground,
    bounded_compositions,
    symmetric_jc_sector,
    takes_orbit_block,
)
from .geometry import ArrayGeometry
from .linalg import (
    SparseOperator,
    SpectrumResult,
    ground_state,
    operator_from_entries,
)
from .observables import CorrelationResult, multiplet_correlations
from .params import EffectiveJCParams, RegimeError, ScalarOrPerLine


@dataclass
class PhotonBlock:
    """Photon configurations at one total, with packed-key ranking."""

    configs: np.ndarray  # (count, n_modes)
    keys: np.ndarray  # packed base-(cap+1), ascending
    weights: np.ndarray  # the key of one quantum in each mode

    @classmethod
    def build(cls, total: int, n_modes: int, cap: int) -> "PhotonBlock":
        configs = bounded_compositions(total, n_modes, cap)
        # in Python integers, so that a key past int64 is refused, not wrapped
        weights = [(cap + 1) ** (n_modes - 1 - m) for m in range(n_modes)]
        last = configs[-1].tolist() if len(configs) else []  # the largest key
        if max(weights + [sum(map(mul, weights, last))]) > np.iinfo(np.int64).max:
            raise ValueError(f"photon keys of {n_modes} modes at cap {cap} pass int64")
        weights = np.array(weights, dtype=np.int64)
        keys = configs @ weights if n_modes else np.zeros(len(configs), np.int64)
        # lex order on configs is ascending key order by construction
        return cls(configs, keys, weights)

    @property
    def count(self) -> int:
        return len(self.configs)

    def rank_keys(self, keys: np.ndarray) -> np.ndarray:
        """Indices of packed keys, -1 where the key is absent."""
        pos = np.searchsorted(self.keys, keys)
        pos = np.clip(pos, 0, len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, pos, -1)


@dataclass
class JCBlock:
    """States with ``k`` raised spins inside a fixed-total sector."""

    k: int
    masks: np.ndarray
    photons: PhotonBlock
    offset: int

    @property
    def inner(self) -> int:
        """Photon configurations per mask (the observables' inner index)."""
        return self.photons.count

    @property
    def size(self) -> int:
        return len(self.masks) * self.photons.count


class JCBasis:
    """Basis of one total-excitation sector of the array model."""

    def __init__(self, geometry: ArrayGeometry, n_total: int, n_max: Optional[int] = None):
        if n_total < 0:
            raise ValueError("n_total must be >= 0")
        if n_max is None:
            n_max = n_total  # per-mode occupation cannot exceed the sector total
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.geometry, self.n_total, self.n_max = geometry, n_total, n_max
        entries = (1 + 2 * geometry.n_sites) * _sector_dim(geometry, n_total, n_max)
        check_rows(entries, "sector matrix")  # a diagonal and two moves per site
        blocks: list[JCBlock] = []
        offset = 0
        for k in range(min(geometry.n_sites, n_total), -1, -1):
            photons = PhotonBlock.build(n_total - k, geometry.n_modes, n_max)
            if photons.count == 0:
                continue
            masks = enumerate_masks(geometry.n_sites, k)
            blocks.append(JCBlock(k=k, masks=masks, photons=photons, offset=offset))
            offset += len(masks) * photons.count
        if offset == 0:
            raise ValueError(f"sector n_total={n_total} empty under per-mode cutoff n_max={n_max}")
        self.blocks = blocks
        self.dim = offset
        self.truncated = n_max < n_total

    def states(self) -> tuple[np.ndarray, ...]:
        """The raised-spin count, the spin mask and the photon counts of
        every sector state, in basis order."""
        parts = [
            (np.full(b.size, b.k), b.masks.repeat(b.inner),
             np.tile(b.photons.configs, (len(b.masks), 1)))
            for b in self.blocks
        ]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def rank(self, spins: np.ndarray, masks: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Basis index of every state given by its raised-spin count, its
        spin mask and its photon key."""
        out = np.empty(len(masks), dtype=np.int64)
        for b in self.blocks:
            i = np.flatnonzero(spins == b.k)
            inside = np.searchsorted(b.masks, masks[i]) * b.inner + b.photons.rank_keys(keys[i])
            out[i] = b.offset + inside
        return out


def _sector_dim(geometry: ArrayGeometry, n_total: int, cap: int) -> int:
    """The sector dimension in closed form, by inclusion-exclusion over modes past ``cap``."""
    m, c = geometry.n_modes, cap + 1
    return sum(math.comb(geometry.n_sites, k) * (-1) ** j * math.comb(m, j)
               * math.comb(n_total - k - j * c + m - 1, m - 1)
               for k in range(min(geometry.n_sites, n_total) + 1)
               for j in range(min(m, (n_total - k) // c) + 1))


def _expand(value: ScalarOrPerLine, count: int) -> np.ndarray:
    if isinstance(value, (int, float)):
        return np.full(count, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (count,):
        raise ValueError(f"expected scalar or length-{count} sequence")
    return arr


def mode_detunings(geometry: ArrayGeometry, jc: EffectiveJCParams) -> np.ndarray:
    """Per-mode photon energies, row modes first."""
    return np.concatenate(
        [_expand(jc.delta_a, geometry.ly), _expand(jc.delta_b, geometry.lx)]
    )


def _jc_entries(geometry, jc, states, cap: int, weights) -> tuple[np.ndarray, ...]:
    """Sector matrix entries out of the given states (raised-spin counts,
    spin masks and photon counts, row modes first): the row index, the mask
    and the photon key (``weights`` per quantum) of the column, and the value
    of each entry.  Diagonal: spin splitting plus photon energies.  A raised
    spin turns into a photon of either mode crossing its site, and back, with
    amplitude ``g sqrt(n)``, n the photons of that mode with the spin
    lowered; no mode passes ``cap``."""
    spins, masks, modes = states
    keys = modes @ weights
    rows, cols, col_keys = [np.arange(len(masks))], [masks], [keys]
    spin_energy = jc.omega_at / 2.0 * (2 * spins - geometry.n_sites)
    vals = [spin_energy + modes @ mode_detunings(geometry, jc)]
    occupations = np.ascontiguousarray(modes.T)
    for s in range(geometry.n_sites if jc.g != 0.0 else 0):
        raised = (masks >> s) & 1 == 1
        moves = ((1, np.flatnonzero(raised)), (-1, np.flatnonzero(~raised)))
        r, c = geometry.row_col(s)
        for m in (r, geometry.ly + c):
            for step, at in moves:
                n = occupations[m][at] + (step > 0)  # photons in mode m, the spin lowered
                ok = (n > 0) & (n <= cap)
                i = at[ok]
                rows.append(i)
                cols.append(masks[i] ^ (1 << s))
                col_keys.append(keys[i] + step * weights[m])
                vals.append(jc.g * np.sqrt(n[ok]))
    return tuple(np.concatenate(part) for part in (rows, cols, col_keys, vals))


def build_jc_hamiltonian(
    geometry: ArrayGeometry, jc: EffectiveJCParams, basis: JCBasis
) -> SparseOperator:
    """Sector matrix of the array model: the entries of :func:`_jc_entries`
    out of every basis state, their columns ranked in the basis.  The
    overall sign of g is a gauge choice (a phase flip of every raised spin
    absorbs it)."""
    if basis.geometry != geometry:
        raise ValueError("basis geometry mismatch")
    spins, masks, _ = states = basis.states()
    weights = basis.blocks[0].photons.weights
    rows, cols, keys, vals = _jc_entries(geometry, jc, states, basis.n_max, weights)
    col_spins = spins[rows] + np.sign(cols - masks[rows])  # one spin flipped, or none
    return operator_from_entries(basis.dim, rows, basis.rank(col_spins, cols, keys), vals)


def _sector_entries(
    geometry: ArrayGeometry, jc: EffectiveJCParams, n_total: int, n_max: Optional[int]
) -> tuple[JCBasis | SymmetricSector, np.ndarray, np.ndarray, np.ndarray]:
    """A sector and the entries (row, column, value) of the matrix of ``jc``
    on it.  With g > 0 an untruncated sector is connected and, in the gauge
    ``(-1)^k`` (k raised spins), all its off-diagonal entries are negative:
    by Perron-Frobenius its ground state is simple and positive, and with
    scalar detunings invariant under every row and column permutation.  Such
    a sector that passes ``canonical.takes_orbit_block`` is held as its
    classes, the entries taken out of the representatives and their columns
    classified by code; any other is the whole :class:`JCBasis`."""
    dim = _sector_dim(geometry, n_total, n_total)
    scalar = all(isinstance(d, (int, float)) for d in (jc.delta_a, jc.delta_b))
    untruncated = n_max is None or n_max >= n_total
    if not (jc.g > 0.0 and scalar and untruncated and takes_orbit_block(dim)):
        basis = JCBasis(geometry, n_total, n_max)
        h = build_jc_hamiltonian(geometry, jc, basis)
        return basis, h.rows, h.cols, h.vals
    sector = symmetric_jc_sector(geometry, n_total)
    check_rows(len(sector.sizes) * (1 + 2 * geometry.n_sites), "orbit block")
    weights = PhotonBlock.build(n_total, geometry.n_modes, n_total).weights
    reps = (sector.spins, sector.representatives, sector.modes)
    rows, cols, keys, vals = _jc_entries(geometry, jc, reps, n_total, weights)
    cols = sector.classify(cols, keys[:, None] // weights % (n_total + 1))
    return sector, rows, cols, vals


def _solve(geometry, jc, n_total, n_max, seed, pencil=False):
    """Ground pair of the sector matrix of ``jc``, or of its critical-coupling
    pencil (:func:`_pencil_ground`), with its sector (:func:`_sector_entries`),
    on the orbit block of a routed sector.  The pencil has the sign pattern
    and graph of the matrix and a symmetric diagonal, so it routes alike."""
    sector, rows, cols, vals = _sector_entries(geometry, jc, n_total, n_max)
    if pencil:  # each class and each state has one diagonal entry
        on = rows == cols
        d = np.bincount(rows[on], weights=vals[on]) + jc.omega_at * geometry.n_sites / 2.0
        if d.min() <= 0.0:
            # a basis state already sits at or below the vacuum at any g
            raise ValueError("g_lo already past the crossing")
        rows, cols = rows[~on], cols[~on]
        vals = vals[~on] / np.sqrt(d[rows] * d[cols])
    if isinstance(sector, SymmetricSector):
        spec = block_ground(sector.sizes, rows, cols, vals, seed)
    else:
        spec = ground_state(operator_from_entries(sector.dim, rows, cols, vals), seed=seed)
    if not spec.converged:
        raise ArithmeticError(f"sector n_total={n_total} ground solve did not converge")
    return spec, sector


def jc_sector_ground(
    geometry: ArrayGeometry,
    jc: EffectiveJCParams,
    n_total: int,
    *,
    n_max: Optional[int] = None,
    seed: int = 0,
) -> tuple[SpectrumResult, JCBasis | SymmetricSector]:
    """Every copy of the ground level of a sector, and the sector its
    vectors live in: a routed sector's class vector with its
    :class:`~cavityspin.canonical.SymmetricSector`, else full vectors
    with the :class:`JCBasis` (:func:`_sector_entries`)."""
    return _solve(geometry, jc, n_total, n_max, seed)


@dataclass(frozen=True)
class JCGroundResult:
    """Global ground state located by scanning total-excitation sectors."""

    n_total: int
    energy: float
    spectrum: SpectrumResult
    basis: JCBasis | SymmetricSector
    scan: tuple[tuple[int, int, float], ...]  # (n_total, dim, energy) per sector


def jc_ground_state(
    geometry: ArrayGeometry,
    jc: EffectiveJCParams,
    *,
    span_cap: int = 64,
    n_max: Optional[int] = None,
    seed: int = 0,
) -> JCGroundResult:
    """Scan sectors upward until the minimum is interior.

    With no cutoff, a mode below zero detuning, or at zero with g > 0, lowers
    the energy without bound as photons are added: a regime error before any
    solve.  Else the scanned range, from 0 to 4, doubles while the lowest
    energy sits at its top, and a minimum still at the cap is the same error.
    Sector ties (within 1e-8 relative) resolve to the smaller total.  Each
    sector is solved once; the winner's spectrum and basis come from the scan.
    """
    low = mode_detunings(geometry, jc).min()
    if n_max is None and (low < 0.0 or low == 0.0 < jc.g):
        raise RegimeError(f"mode detuning {low:g}: unbounded photon growth at these parameters")
    solved: dict[int, tuple[SpectrumResult, JCBasis | SymmetricSector]] = {}

    def energy(n: int) -> float:
        if n not in solved:
            solved[n] = jc_sector_ground(geometry, jc, n, n_max=n_max, seed=seed)
        return solved[n][0].ground_energy

    span = 4
    while True:
        best_n = 0
        for n in range(span + 1):
            e = energy(n)
            if e < energy(best_n) - 1e-8 * max(1.0, abs(e)):
                best_n = n
        if best_n < span:
            break
        if span >= span_cap:
            raise RegimeError(
                f"sector minimum still at the scan cap {span_cap}: "
                "unbounded photon growth at these parameters"
            )
        span = min(2 * span, span_cap)

    spectrum, basis = solved[best_n]
    return JCGroundResult(
        n_total=best_n,
        energy=spectrum.ground_energy,
        spectrum=spectrum,
        basis=basis,
        scan=tuple(
            (n, b.dim, s.ground_energy) for n, (s, b) in sorted(solved.items())
        ),
    )


def one_excitation_crossing_g(
    geometry: ArrayGeometry, omega_at: float, delta: float
) -> float:
    """Coupling where the one-excitation ground level meets the vacuum.

    In the one-excitation sector the coupling block between the N spin
    states and the Lx+Ly mode states has Gram matrix with top eigenvalue
    Lx+Ly (each site meets one row and one column line).  Eliminating the
    mode states at energy 0 relative to the vacuum turns the crossing
    condition into ``omega_at = g^2 (Lx+Ly) / delta``.
    """
    rad = omega_at * delta / (geometry.lx + geometry.ly)
    if rad < 0.0:
        raise RegimeError("omega_at and delta must share a sign for a crossing")
    return math.sqrt(rad)


def _pencil_ground(geometry, unit, n_total, n_max, seed) -> SpectrumResult:
    """Lowest pair of ``w = D'^-1/2 V D'^-1/2`` on one sector, ``unit`` the
    parameters at g = 1 (see :func:`superradiant_critical_g`), on the
    orbit block where the sector is routed."""
    return _solve(geometry, unit, n_total, n_max, seed, pencil=True)[0]


def superradiant_critical_g(
    geometry: ArrayGeometry,
    omega_at: float,
    delta_a: ScalarOrPerLine,
    delta_b: ScalarOrPerLine,
    *,
    g_lo: float,
    g_hi: float,
    sectors: int = 3,
    n_max: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Coupling where an excited sector first drops below the vacuum.

    Sector n is ``D + g V``: photon and spin diagonal D, exchange V at unit
    coupling.  Against the vacuum energy ``-omega_at N / 2`` the shifted
    diagonal ``D' = D - E_vac`` is positive, so the sector stays above the
    vacuum until ``D' + g V`` turns singular, at ``g = -1 / mu`` with ``mu``
    the lowest eigenvalue of ``D'^-1/2 V D'^-1/2``.  The smallest such g over
    ``1 <= n <= sectors`` must lie in ``(g_lo, g_hi]``.  A sector past the
    route floor with scalar detunings and no truncation finds ``mu`` on its
    orbit block (:func:`_pencil_ground`), like :func:`jc_sector_ground`.
    """
    unit = EffectiveJCParams(
        omega_at=omega_at, g=1.0, delta_a=delta_a, delta_b=delta_b
    )
    mu = 0.0
    for n in range(1, sectors + 1):
        mu = min(mu, _pencil_ground(geometry, unit, n, n_max, seed).ground_energy)
    g_c = -1.0 / mu if mu < 0.0 else math.inf
    if g_c <= g_lo:
        raise ValueError("g_lo already past the crossing")
    if g_c > g_hi:
        raise ValueError("g_hi below the crossing")
    return g_c


def jc_correlation_ratio(
    spectrum: SpectrumResult, basis: JCBasis | SymmetricSector
) -> CorrelationResult:
    """Ground-multiplet correlation ratio with the photons traced out; a
    routed sector is read on its class vector."""
    return multiplet_correlations(spectrum, basis)


def collective_mode_hamiltonian(
    n_spins: int, delta: float, omega_at: float, lam: float, n_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense matrix of the single-mode all-to-all model, with labels.

    Basis index is ``spin_state * (n_max + 1) + n``.  Returns the matrix and
    the per-state spin projection m and photon number n; both are conserved,
    so each (m, n) pair is an exact block whose eigenvalues the closed-form
    level formula must reproduce.
    """
    dim_spin = 1 << n_spins
    dim = dim_spin * (n_max + 1)
    if dim > 200_000:
        raise ValueError(f"dense dimension {dim} too large")
    h = np.zeros((dim, dim))
    nvals = np.tile(np.arange(n_max + 1), dim_spin)
    pop = np.array([bin(s).count("1") for s in range(dim_spin)])
    mvals = np.repeat(pop - n_spins / 2.0, n_max + 1)
    idx = np.arange(dim)
    h[idx, idx] = (
        delta * nvals + (omega_at + 4.0 * lam * nvals) * mvals + 2.0 * lam * np.repeat(pop, n_max + 1)
    )
    for state in range(dim_spin):
        for t in range(n_spins):
            if not (state >> t) & 1:
                continue
            for s in range(n_spins):
                if (state >> s) & 1:
                    continue
                other = state ^ ((1 << s) | (1 << t))
                for n in range(n_max + 1):
                    h[other * (n_max + 1) + n, state * (n_max + 1) + n] += 2.0 * lam
    return h, mvals, nvals
