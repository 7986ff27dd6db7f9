"""Exact diagonalization of the light-matter model on the array.

Spins sit at row/column intersections; every row has its own mode, every
column too.  The exchange coupling conserves the total excitation number
(raised spins plus all photons), so the Hilbert space splits into sectors
labelled by that total.  Within a sector no photon mode can ever hold more
quanta than the sector total, so a per-mode cutoff ``n_max >= n_total``
makes the sector matrix exact, not truncated.

Mode layout: modes ``0 .. ly-1`` are the row modes, ``ly .. ly+lx-1`` the
column modes.  Photon configurations are ranked through base-``n_max+1``
packed int64 keys, which keeps matrix assembly vectorized; a block whose
keys would not fit int64 is refused.

With g > 0 the sector ground state of an untruncated sector is simple, and
with scalar detunings it is invariant under S_Ly x S_Lx acting on the sites
and the line modes together; :func:`jc_sector_ground` then solves the ground
pair of a sector past the route floor ``canonical.FLOOR`` (200 states, from
``scripts/solver_sweep.py floor``) on the block of normalized orbit sums (114
classes for the 2016 states of 3x3 n_total=4), and
:func:`superradiant_critical_g` the lowest pair of its critical-coupling
pencil, which has the same sign pattern and graph.  The classes are named by
canonical codes (``canonical``) of the spins together with the mode counts,
which move with their lines; the block is built from the sector entries
whose row is a class representative (``canonical.orbit_block``) and solved
by ``canonical.block_ground``, both in :func:`_ground`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul
from typing import Optional

import numpy as np

from .basis import enumerate_masks
from .canonical import (
    block_ground,
    canonical_codes,
    code_classes,
    orbit_block,
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

MAX_JC_DIM = 2_000_000


def bounded_compositions(total: int, parts: int, cap: int) -> np.ndarray:
    """All distributions of ``total`` quanta over ``parts`` capped modes,
    lexicographically ascending, shape (count, parts)."""
    if parts == 0:
        return np.zeros((1 if total == 0 else 0, 0), dtype=np.int64)
    out: list[list[int]] = []
    config = [0] * parts

    def fill(pos: int, rem: int) -> None:
        if pos == parts - 1:
            if rem <= cap:
                config[pos] = rem
                out.append(config.copy())
            return
        tail_cap = (parts - pos - 1) * cap
        for v in range(max(0, rem - tail_cap), min(cap, rem) + 1):
            config[pos] = v
            fill(pos + 1, rem - v)

    fill(0, total)
    return np.asarray(out, dtype=np.int64).reshape(len(out), parts)


@dataclass
class PhotonBlock:
    """Photon configurations at one total, with packed-key ranking."""

    total: int
    n_modes: int
    cap: int
    configs: np.ndarray  # (count, n_modes)
    keys: np.ndarray  # packed base-(cap+1), ascending

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
        return cls(total=total, n_modes=n_modes, cap=cap, configs=configs, keys=keys)

    @property
    def count(self) -> int:
        return len(self.configs)

    def key_weight(self, mode: int) -> int:
        return (self.cap + 1) ** (self.n_modes - 1 - mode)

    def rank_keys(self, keys: np.ndarray) -> np.ndarray:
        """Indices of packed keys, -1 where the key is absent."""
        if len(self.keys) == 0:
            return np.full(len(keys), -1, dtype=np.int64)
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
        """Photon configurations per spin mask (the observables kernel's
        inner dimension)."""
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
        self.geometry = geometry
        self.n_total = n_total
        self.n_max = n_max
        n_sites = geometry.n_sites
        n_modes = geometry.n_modes
        blocks: list[JCBlock] = []
        offset = 0
        for k in range(min(n_sites, n_total), -1, -1):
            photons = PhotonBlock.build(n_total - k, n_modes, n_max)
            if photons.count == 0:
                continue
            masks = enumerate_masks(n_sites, k)
            blocks.append(JCBlock(k=k, masks=masks, photons=photons, offset=offset))
            offset += len(masks) * photons.count
        if offset > MAX_JC_DIM:
            raise ValueError(f"sector dimension {offset} exceeds guard {MAX_JC_DIM}")
        if offset == 0:
            raise ValueError(
                f"sector n_total={n_total} empty under per-mode cutoff n_max={n_max}"
            )
        self.blocks = blocks
        self.dim = offset
        self.truncated = n_max < n_total

    def row_mode(self, row: int) -> int:
        return row

    def col_mode(self, col: int) -> int:
        return self.geometry.ly + col


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


def build_jc_hamiltonian(
    geometry: ArrayGeometry, jc: EffectiveJCParams, basis: JCBasis
) -> SparseOperator:
    """Sector matrix of the array model.

    Diagonal: spin splitting plus photon energies.  Off-diagonal: one raised
    spin converts into one photon of either mode crossing its site, with
    amplitude ``g sqrt(n_mode + 1)``.  The overall sign of g is a gauge
    choice (a phase flip of every raised spin absorbs it), so the magnitude
    is used.
    """
    if basis.geometry != geometry:
        raise ValueError("basis geometry mismatch")
    n_sites = geometry.n_sites
    deltas = mode_detunings(geometry, jc)
    g = jc.g
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    # diagonal, block by block
    for blk in basis.blocks:
        diag_spin = jc.omega_at / 2.0 * (2 * blk.k - n_sites)
        diag_phot = blk.photons.configs @ deltas
        d = (diag_spin + diag_phot[None, :]).repeat(len(blk.masks), axis=0).reshape(-1)
        idx = blk.offset + np.arange(blk.size)
        rows.append(idx)
        cols.append(idx)
        vals.append(d)

    # spin-lowering / photon-raising between adjacent spin blocks
    by_k = {blk.k: blk for blk in basis.blocks}
    for blk in basis.blocks:
        lower = by_k.get(blk.k - 1)
        if lower is None or g == 0.0:
            continue
        np_hi = blk.photons.count
        np_lo = lower.photons.count
        for s in range(n_sites):
            bit = np.int64(1) << s
            sel = np.nonzero((blk.masks & bit) != 0)[0]
            if len(sel) == 0:
                continue
            partner = blk.masks[sel] ^ bit
            pr = np.searchsorted(lower.masks, partner)
            if not np.array_equal(lower.masks[pr], partner):
                raise AssertionError("spin block mismatch")
            r, c = geometry.row_col(s)
            for m in (basis.row_mode(r), basis.col_mode(c)):
                occ = blk.photons.configs[:, m]
                ok = np.nonzero(occ < basis.n_max)[0]
                if len(ok) == 0:
                    continue
                tgt = lower.photons.rank_keys(
                    blk.photons.keys[ok] + blk.photons.key_weight(m)
                )
                good = tgt >= 0
                ok = ok[good]
                tgt = tgt[good]
                if len(ok) == 0:
                    continue
                amp = g * np.sqrt(occ[ok] + 1.0)
                ridx = blk.offset + (sel[:, None] * np_hi + ok[None, :]).reshape(-1)
                cidx = lower.offset + (pr[:, None] * np_lo + tgt[None, :]).reshape(-1)
                v = np.broadcast_to(amp, (len(sel), len(ok))).reshape(-1)
                rows.append(ridx)
                cols.append(cidx)
                vals.append(v)
                rows.append(cidx)
                cols.append(ridx)
                vals.append(v)

    return operator_from_entries(
        basis.dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def _state_codes(basis: JCBasis) -> np.ndarray:
    """Canonical code of every sector state: its spin mask with the photon
    counts of the line modes, which move with their lines."""
    masks = np.concatenate([blk.masks.repeat(blk.inner) for blk in basis.blocks])
    modes = np.concatenate(
        [np.tile(blk.photons.configs, (len(blk.masks), 1)) for blk in basis.blocks]
    )
    return canonical_codes(basis.geometry, masks, modes)[0]


def _ground(
    jc: EffectiveJCParams, basis: JCBasis, op: SparseOperator, seed: int
) -> SpectrumResult:
    """Ground pair of a sector operator with the sign pattern and the graph
    of the sector Hamiltonian of ``jc`` that commutes with every row and
    column permutation at scalar detunings: that Hamiltonian, or the
    critical-coupling pencil of :func:`_pencil_ground`.

    In the gauge ``(-1)^k`` (k raised spins) every off-diagonal entry is
    then negative, and for g > 0 an untruncated sector is connected, so by
    Perron-Frobenius the ground state is simple and positive.  With scalar
    detunings it is then invariant under every row and column permutation,
    and a sector that passes the size rule ``canonical.takes_orbit_block``
    is solved on the block of symmetric orbit sums: the states are grouped
    by code, the block is built from the rows of the class representatives,
    and its vector ``c`` is expanded to amplitude ``c_i / sqrt(s_i)`` on
    every member of class i.  Every other case is solved on the full sector
    matrix.
    """
    if not (
        jc.g > 0.0
        and all(isinstance(d, (int, float)) for d in (jc.delta_a, jc.delta_b))
        and not basis.truncated
        and takes_orbit_block(basis.dim)
    ):
        return ground_state(op, seed=seed)
    geometry = basis.geometry
    order = math.factorial(geometry.lx) * math.factorial(geometry.ly)
    reps, which, sizes = code_classes(_state_codes(basis), order)
    keep = reps[which[op.rows]] == op.rows
    block = orbit_block(sizes, which[op.rows[keep]], which[op.cols[keep]], op.vals[keep])
    spec = block_ground(block, seed)
    vectors = (spec.eigenvectors / np.sqrt(sizes)[:, None])[which]
    return replace(spec, eigenvectors=vectors)


def jc_sector_ground(
    geometry: ArrayGeometry,
    jc: EffectiveJCParams,
    n_total: int,
    *,
    n_max: Optional[int] = None,
    seed: int = 0,
) -> tuple[SpectrumResult, JCBasis]:
    """Every copy of the ground level of a sector, on the symmetric orbit
    block where :func:`_ground` proves the ground pair simple and symmetric
    and the sector passes the route floor, else on the full sector matrix.
    """
    basis = JCBasis(geometry, n_total, n_max)
    spec = _ground(jc, basis, build_jc_hamiltonian(geometry, jc, basis), seed)
    if not spec.converged:
        raise ArithmeticError(f"sector n_total={n_total} ground solve did not converge")
    return spec, basis


@dataclass(frozen=True)
class JCGroundResult:
    """Global ground state located by scanning total-excitation sectors."""

    n_total: int
    energy: float
    spectrum: SpectrumResult
    basis: JCBasis
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

    The scanned range, from 0 to 4, doubles while the lowest energy sits at
    its top; a minimum still at the cap means the photon branch is unbounded
    for these parameters, which is reported as a regime error rather than a
    value.  Sector ties (within 1e-8 relative) resolve to the smaller total.
    Each sector is solved once; the winner's spectrum and basis come from
    the scan.
    """
    solved: dict[int, tuple[SpectrumResult, JCBasis]] = {}

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


def _pencil_ground(
    geometry: ArrayGeometry,
    unit: EffectiveJCParams,
    n_total: int,
    n_max: Optional[int],
    seed: int,
) -> SpectrumResult:
    """Lowest pair of ``w = D'^-1/2 V D'^-1/2`` on one sector, ``unit`` the
    parameters at g = 1 (see :func:`superradiant_critical_g`).

    w has the sign pattern and the graph of V, and ``D'`` is unchanged by
    the row and column permutations at scalar detunings, so :func:`_ground`
    solves it on the orbit block wherever it would route the sector: in the
    gauge ``(-1)^k`` the lowest eigenvalue is simple with a positive,
    symmetric vector.
    """
    e_vac = -unit.omega_at * geometry.n_sites / 2.0
    basis = JCBasis(geometry, n_total, n_max)
    h = build_jc_hamiltonian(geometry, unit, basis)
    on = h.rows == h.cols
    d = np.bincount(h.rows[on], weights=h.vals[on], minlength=basis.dim) - e_vac
    if d.min() <= 0.0:
        # a basis state already sits at or below the vacuum at any g
        raise ValueError("g_lo already past the crossing")
    rows, cols = h.rows[~on], h.cols[~on]
    w = operator_from_entries(
        basis.dim, rows, cols, h.vals[~on] / np.sqrt(d[rows] * d[cols])
    )
    spec = _ground(unit, basis, w, seed)
    if not spec.converged:
        raise ArithmeticError(f"sector n_total={n_total} solve did not converge")
    return spec


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


def jc_correlation_ratio(spectrum: SpectrumResult, basis: JCBasis) -> CorrelationResult:
    """Ground-multiplet correlation ratio with the photons traced out."""
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
