"""Exact diagonalization of the light-matter model on the array.

Spins sit at row/column intersections; every row has its own mode, every
column too.  The exchange coupling conserves the total excitation number
(raised spins plus all photons), so the Hilbert space splits into sectors
labelled by that total.  Within a sector no photon mode can ever hold more
quanta than the sector total, so a per-mode cutoff ``n_max >= n_total``
makes the sector matrix exact, not truncated.

Mode layout: modes ``0 .. ly-1`` are the row modes, ``ly .. ly+lx-1`` the
column modes.  Photon configurations are ranked through base-``n_max+1``
packed keys, which keeps matrix assembly vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .basis import enumerate_masks
from .geometry import ArrayGeometry
from .linalg import (
    SparseOperator,
    SpectrumResult,
    ground_state,
    operator_from_entries,
)
from .observables import (
    CorrelationResult,
    block_segments,
    multiplet_correlations,
    site_occupations,
)
from .params import EffectiveJCParams, RegimeError, ScalarOrPerLine

MAX_JC_DIM = 2_000_000


def composition_count(total: int, parts: int, cap: int) -> int:
    """Number of ways to place ``total`` quanta into ``parts`` modes, each
    holding at most ``cap``.  Inclusion-exclusion over overflowing modes."""
    if total < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    count = 0
    for j in range(parts + 1):
        rem = total - j * (cap + 1)
        if rem < 0:
            break
        count += (-1) ** j * math.comb(parts, j) * math.comb(rem + parts - 1, parts - 1)
    return count


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
        base = cap + 1
        weights = base ** np.arange(n_modes - 1, -1, -1, dtype=np.int64)
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
            n_phot = composition_count(n_total - k, n_modes, n_max)
            if n_phot == 0:
                continue
            masks = enumerate_masks(n_sites, k)
            blocks.append(
                JCBlock(
                    k=k,
                    masks=masks,
                    photons=PhotonBlock.build(n_total - k, n_modes, n_max),
                    offset=offset,
                )
            )
            offset += len(masks) * n_phot
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

    def state(self, index: int) -> tuple[int, tuple[int, ...]]:
        """(spin mask, photon tuple) of one basis state."""
        for blk in self.blocks:
            if index < blk.offset + blk.size:
                local = index - blk.offset
                im, ip = divmod(local, blk.photons.count)
                return int(blk.masks[im]), tuple(int(v) for v in blk.photons.configs[ip])
        raise IndexError(index)

    def index(self, mask: int, photons: Sequence[int]) -> int:
        k = bin(mask).count("1")
        for blk in self.blocks:
            if blk.k != k:
                continue
            im = int(np.searchsorted(blk.masks, mask))
            if im >= len(blk.masks) or blk.masks[im] != mask:
                break
            key = 0
            for m, v in enumerate(photons):
                key += v * blk.photons.key_weight(m)
            ip = int(blk.photons.rank_keys(np.array([key]))[0])
            if ip < 0:
                break
            return blk.offset + im * blk.photons.count + ip
        raise KeyError((mask, tuple(photons)))

    def spin_excitation_counts(self) -> np.ndarray:
        out = np.empty(self.dim, dtype=np.int64)
        for blk in self.blocks:
            out[blk.offset : blk.offset + blk.size] = blk.k
        return out


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


def jc_sector_ground(
    geometry: ArrayGeometry,
    jc: EffectiveJCParams,
    n_total: int,
    *,
    n_max: Optional[int] = None,
    k: int = 1,
    **solver_kwargs,
) -> tuple[SpectrumResult, JCBasis]:
    basis = JCBasis(geometry, n_total, n_max)
    h = build_jc_hamiltonian(geometry, jc, basis)
    spec = ground_state(h, min(k, basis.dim), **solver_kwargs)
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
    scan: tuple[tuple[int, float], ...]


def jc_ground_state(
    geometry: ArrayGeometry,
    jc: EffectiveJCParams,
    *,
    initial_span: int = 4,
    span_cap: int = 64,
    rtol: float = 1e-8,
    k: int = 1,
    **solver_kwargs,
) -> JCGroundResult:
    """Scan sectors upward until the minimum is interior.

    The scanned range doubles while the lowest energy sits at its top; a
    minimum still at the cap means the photon branch is unbounded for these
    parameters, which is reported as a regime error rather than a value.
    Sector ties (within ``rtol``) resolve to the smaller total.
    """
    energies: dict[int, float] = {}

    def energy(n: int) -> float:
        if n not in energies:
            spec, _ = jc_sector_ground(geometry, jc, n, **solver_kwargs)
            energies[n] = spec.ground_energy
        return energies[n]

    span = initial_span
    while True:
        best_n = 0
        for n in range(span + 1):
            e = energy(n)
            if e < energies[best_n] - rtol * max(1.0, abs(e)):
                best_n = n
        if best_n < span:
            break
        if span >= span_cap:
            raise RegimeError(
                f"sector minimum still at the scan cap {span_cap}: "
                "unbounded photon growth at these parameters"
            )
        span = min(2 * span, span_cap)

    spectrum, basis = jc_sector_ground(geometry, jc, best_n, k=k, **solver_kwargs)
    scan = tuple(sorted(energies.items()))
    return JCGroundResult(
        n_total=best_n,
        energy=spectrum.ground_energy,
        spectrum=spectrum,
        basis=basis,
        scan=scan,
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
    **solver_kwargs,
) -> float:
    """Coupling where an excited sector first drops below the vacuum.

    Sector n is ``D + g V``: photon and spin diagonal D, exchange V at unit
    coupling.  Against the vacuum energy ``-omega_at N / 2`` the shifted
    diagonal ``D' = D - E_vac`` is positive, so the sector stays above the
    vacuum until ``D' + g V`` turns singular, at ``g = -1 / mu`` with ``mu``
    the lowest eigenvalue of ``D'^-1/2 V D'^-1/2``.  The smallest such g over
    ``1 <= n <= sectors`` must lie in ``(g_lo, g_hi]``.
    """
    e_vac = -omega_at * geometry.n_sites / 2.0
    unit = EffectiveJCParams(
        omega_at=omega_at, g=1.0, delta_a=delta_a, delta_b=delta_b
    )
    mu = 0.0
    for n in range(1, sectors + 1):
        basis = JCBasis(geometry, n, n_max)
        h = build_jc_hamiltonian(geometry, unit, basis).matrix.tocoo()
        d = h.diagonal() - e_vac
        if d.min() <= 0.0:
            # a basis state already sits at or below the vacuum at any g
            raise ValueError("g_lo already past the crossing")
        off = h.row != h.col
        rows, cols = h.row[off], h.col[off]
        w = operator_from_entries(
            basis.dim, rows, cols, h.data[off] / np.sqrt(d[rows] * d[cols])
        )
        spec = ground_state(w, **solver_kwargs)
        if not spec.converged:
            raise ArithmeticError(f"sector n_total={n} solve did not converge")
        mu = min(mu, spec.ground_energy)
    g_c = -1.0 / mu if mu < 0.0 else math.inf
    if g_c <= g_lo:
        raise ValueError("g_lo already past the crossing")
    if g_c > g_hi:
        raise ValueError("g_hi below the crossing")
    return g_c


@dataclass(frozen=True)
class JCObservables:
    """One-point observables of a sector state (or averaged multiplet)."""

    n_total: int
    spin_occupations: np.ndarray  # per site
    spin_total: float
    photon_occupations: np.ndarray  # per mode, rows first
    photon_total: float
    cross_coherence: np.ndarray  # <a_r^dag b_c + b_c^dag a_r> per site (r, c)
    delta_omega_sites: Optional[np.ndarray]
    delta_omega_mean: Optional[float]


def measure_observables(
    vectors: np.ndarray,
    basis: JCBasis,
    *,
    lambda_a: Optional[float] = None,
    lambda_b: Optional[float] = None,
) -> JCObservables:
    """Site, mode, and coherence expectations, averaged over the columns.

    With both couplings given, the per-site frequency-shift operator
    ``lam_a (2 n_a + x) + lam_b (2 n_b + x)`` with
    ``x = a^dag b + b^dag a`` is also evaluated; its site mean feeds the
    interaction-strength regime classification.
    """
    geometry = basis.geometry
    n_sites = geometry.n_sites
    spin_occ = site_occupations(vectors, basis)
    phot_occ = np.zeros(geometry.n_modes)
    cross = np.zeros(n_sites)

    for blk, seg in block_segments(vectors, basis):
        ncol = seg.shape[2]
        w_phot = (seg**2).sum(axis=(0, 2)) / ncol  # weight per photon config
        phot_occ += blk.photons.configs.T @ w_phot
        # photon move between the two modes of each site, spin mask fixed
        for s in range(n_sites):
            r, c = geometry.row_col(s)
            m1, m2 = basis.row_mode(r), basis.col_mode(c)
            occ1 = blk.photons.configs[:, m1]
            occ2 = blk.photons.configs[:, m2]
            ok = np.nonzero((occ2 > 0) & (occ1 < basis.n_max))[0]
            if len(ok) == 0:
                continue
            tgt = blk.photons.rank_keys(
                blk.photons.keys[ok]
                + blk.photons.key_weight(m1)
                - blk.photons.key_weight(m2)
            )
            good = tgt >= 0
            ok, tgt = ok[good], tgt[good]
            if len(ok) == 0:
                continue
            amp = np.sqrt(occ2[ok] * (occ1[ok] + 1.0))
            # the operator is a sum of the move and its reverse, hence the 2
            cross[s] += 2.0 * float(
                (seg[:, tgt, :] * seg[:, ok, :] * amp[None, :, None]).sum() / ncol
            )

    d_sites = None
    d_mean = None
    if lambda_a is not None and lambda_b is not None:
        d_sites = np.empty(n_sites)
        for s in range(n_sites):
            r, c = geometry.row_col(s)
            na = phot_occ[basis.row_mode(r)]
            nb = phot_occ[basis.col_mode(c)]
            d_sites[s] = lambda_a * (2.0 * na + cross[s]) + lambda_b * (
                2.0 * nb + cross[s]
            )
        d_mean = float(d_sites.mean())

    return JCObservables(
        n_total=basis.n_total,
        spin_occupations=spin_occ,
        spin_total=float(spin_occ.sum()),
        photon_occupations=phot_occ,
        photon_total=float(phot_occ.sum()),
        cross_coherence=cross,
        delta_omega_sites=d_sites,
        delta_omega_mean=d_mean,
    )


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
