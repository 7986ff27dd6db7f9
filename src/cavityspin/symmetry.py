"""Permutation symmetry of the array model: counting and class tables.

With uniform couplings the spin Hamiltonian commutes with every permutation
of whole rows and whole columns, plus the transpose when the array is square
and the two couplings are equal.  The group is its geometry and whether it
has the transpose; its order and cycle index (exact rational coefficients)
are closed forms, and the pattern inventory counts its orbits on spin
configurations without enumeration.

A sector's orbit classes are the grown levels of
``canonical.symmetric_sector``: :func:`grown_classes` reads the S_Ly x S_Lx
level and, with the transpose, merges each class with the class of its
transposed representative.  The ``polya`` command prints their sizes and
enumerates no sector; :func:`orbits` lists the members of every class of a
sector whose table fits ``basis.MAX_ROWS``, and
:func:`orbit_basis_hamiltonian` projects onto them (a block, built as
entries).  This module serves ``polya`` and the acceptance criteria; the
symmetric-block routes live in ``canonical`` and never run it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations as iter_permutations
from math import factorial, gcd, prod
from typing import Optional

import numpy as np

from .basis import SectorBasis, enumerate_masks, line_moves
from .canonical import SymmetricSector, orbit_block, site_images, symmetric_sector
from .geometry import ArrayGeometry
from .params import SpinCouplings


@dataclass(frozen=True)
class PermutationGroup:
    """Row x column permutations of an array, optionally with the
    transpose; the order and cycle index are closed forms."""

    geometry: ArrayGeometry
    transpose: bool

    @property
    def degree(self) -> int:
        return self.geometry.n_sites

    @property
    def order(self) -> int:
        """Lx! Ly!, doubled by a transpose that moves a site (not on 1x1)."""
        flips = 2 if self.transpose and self.degree > 1 else 1
        return factorial(self.geometry.lx) * factorial(self.geometry.ly) * flips


def _transpose_perm(
    geometry: ArrayGeometry, row_cycles: tuple[int, ...] = ()
) -> tuple[int, ...]:
    """Site permutation (rho, id) o T: the transpose, then the row
    permutation rho with cycles of lengths ``row_cycles`` (none moved by
    default); the array is square."""
    rho: list[int] = []
    for a in row_cycles or (1,) * geometry.lx:
        rho += [len(rho) + (i + 1) % a for i in range(a)]
    side = range(geometry.lx)
    return tuple(geometry.site(rho[col], row) for row in side for col in side)


def build_group(
    geometry: ArrayGeometry, include_transpose: Optional[bool] = None
) -> PermutationGroup:
    """Row-permutation x column-permutation group, optionally with transpose.

    ``include_transpose=None`` auto-includes it exactly for square arrays
    (the coupling-equality condition is the caller's responsibility when the
    group is used to block-reduce a Hamiltonian).
    """
    if include_transpose is None:
        include_transpose = geometry.lx == geometry.ly
    if include_transpose and geometry.lx != geometry.ly:
        raise ValueError("transpose requires a square array")
    return PermutationGroup(geometry, include_transpose)


def _partitions(n: int, largest: Optional[int] = None):
    """Partitions of n as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _centralizer_order(parts: tuple[int, ...]) -> int:
    """z = prod_j j^m_j m_j! for a cycle type with m_j cycles of length j."""
    return prod(j**m * factorial(m) for j, m in Counter(parts).items())


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Counts (b_1, ..., b_n) of cycles of each length."""
    n = len(perm)
    counts = [0] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        counts[length - 1] += 1
    return tuple(counts)


@dataclass(frozen=True)
class CycleIndexPolynomial:
    """Cycle index as exact rational coefficients per cycle type."""

    degree: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def pattern_inventory(self) -> list[int]:
        """Orbit counts per occupation number from x_j -> b^j + r^j.

        Entry k is the number of inequivalent configurations with k raised
        spins; the list sums to the total two-coloring orbit count.
        """
        n = self.degree
        acc = [Fraction(0)] * (n + 1)
        for ctype, coeff in self.terms:
            poly = [Fraction(1)]
            for j, b in enumerate(ctype, start=1):
                for _ in range(b):
                    nxt = [Fraction(0)] * (len(poly) + j)
                    for d, c in enumerate(poly):
                        nxt[d] += c
                        nxt[d + j] += c
                    poly = nxt
            for d, c in enumerate(poly):
                acc[d] += coeff * c
        out = []
        for v in acc:
            if v.denominator != 1:
                raise ArithmeticError(f"non-integer orbit count {v}")
            out.append(int(v))
        return out


def cycle_index(group: PermutationGroup) -> CycleIndexPolynomial:
    """Cycle index on the sites, summed over cycle types.

    Row and column permutations of types p and q move the sites in
    gcd(a, b) cycles of length lcm(a, b) for each row cycle a and column
    cycle b; the pair weighs 1/(z_p z_q) (Harary & Palmer, *Graphical
    Enumeration*, 1973).  On the transpose coset the site type of
    (sigma, tau) o T depends only on the type rho of sigma tau, so one
    permutation per rho, weighted 1/z_rho, stands for it; each coset then
    weighs half.
    """
    geom = group.geometry
    z = _centralizer_order
    halves = 2 if group.transpose else 1
    weights: defaultdict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    for p in _partitions(geom.ly):
        for q in _partitions(geom.lx):
            counts = [0] * geom.n_sites
            for a in p:
                for b in q:
                    counts[a * b // gcd(a, b) - 1] += gcd(a, b)
            weights[tuple(counts)] += Fraction(1, halves * z(p) * z(q))
    if group.transpose:
        for rho in _partitions(geom.lx):
            weights[cycle_type(_transpose_perm(geom, rho))] += Fraction(1, 2 * z(rho))
    terms = tuple(sorted(weights.items(), reverse=True))
    return CycleIndexPolynomial(degree=geom.n_sites, terms=terms)


def polya_count(group: PermutationGroup, n_exc: int) -> int:
    """Number of orbit classes among configurations with n_exc raised spins."""
    if not 0 <= n_exc <= group.degree:
        raise ValueError(f"n_exc={n_exc} outside [0, {group.degree}]")
    return cycle_index(group).pattern_inventory()[n_exc]


@dataclass(frozen=True)
class OrbitClass:
    """One equivalence class of configurations under the group action."""

    representative: int
    size: int
    stabilizer_order: int
    members: tuple[int, ...] = field(repr=False, default=())


def grown_classes(
    group: PermutationGroup, n_exc: int
) -> tuple[SymmetricSector, np.ndarray, np.ndarray]:
    """The orbit classes of a sector with no sector table: its grown
    S_Ly x S_Lx level (``canonical.symmetric_sector``), the class of each
    class of that level and the class sizes.

    With the transpose, each class of the level merges with the class of
    its transposed representative, numbered by the first of the two; the
    merged size is s_i + s_t(i), or s_i for a class that is its own
    transpose.
    """
    sector = symmetric_sector(group.geometry, n_exc)
    index = np.arange(len(sector.sizes))
    if not group.transpose:
        return sector, index, sector.sizes
    flipped = site_images(_transpose_perm(group.geometry), sector.representatives)
    image = sector.classify(flipped)
    first = image >= index
    label = (np.cumsum(first) - 1)[np.minimum(index, image)]
    sizes = np.where(image == index, sector.sizes, sector.sizes + sector.sizes[image])
    return sector, label, sizes[first]


def _orbit_table(
    group: PermutationGroup, n_exc: int
) -> tuple[list[OrbitClass], np.ndarray, np.ndarray]:
    """Orbit classes of the sector sorted by (size, representative), the
    class index of every sector state and the ascending sector masks.

    Every mask takes the class of its code in :func:`grown_classes`, and
    a class is represented by its smallest member.  The C(N, n) members
    are bounded by the row budget of the table (``basis.enumerate_masks``).
    """
    masks = enumerate_masks(group.degree, n_exc)
    sector, label, sizes = grown_classes(group, n_exc)
    which = label[sector.classify(masks)]
    if not np.array_equal(np.bincount(which, minlength=len(sizes)), sizes):
        raise ArithmeticError("class sizes disagree with the class members")
    grouped = masks[np.argsort(which, kind="stable")]
    ends = np.cumsum(sizes)
    members = np.split(grouped, ends[:-1])
    reps = grouped[ends - sizes]  # the masks of a class stay ascending
    ranked = np.lexsort((reps, sizes))
    classes = [
        OrbitClass(
            representative=int(reps[i]),
            size=int(sizes[i]),
            stabilizer_order=group.order // int(sizes[i]),
            members=tuple(members[i].tolist()),
        )
        for i in ranked
    ]
    return classes, np.argsort(ranked)[which], masks


def orbits(group: PermutationGroup, n_exc: int) -> list[OrbitClass]:
    """Partition of the sector into orbit classes, sorted by (size, rep)."""
    return _orbit_table(group, n_exc)[0]


@dataclass(frozen=True)
class OrbitHamiltonian:
    """Interaction projected onto normalized orbit-sum states.

    ``matrix`` is in energy units; ``hop_counts[i][j]`` is the integer number
    of single-excitation moves from any fixed member of class i into class j
    (well defined because the Hamiltonian commutes with the group), so
    ``matrix[i, j] = 2*lambda * hop_counts[i][j] * sqrt(size_i / size_j)``,
    built by :func:`orbit_block` from the same moves.
    """

    classes: tuple[OrbitClass, ...]
    matrix: np.ndarray
    hop_counts: np.ndarray
    energy_unit: float  # the 2*lambda prefactor


def orbit_basis_hamiltonian(
    geometry: ArrayGeometry, couplings: SpinCouplings, n_exc: int
) -> OrbitHamiltonian:
    """Project the hopping interaction onto the orbit basis.

    Requires equal row and column couplings; the group must commute with
    the Hamiltonian for the projection to close.
    """
    if couplings.lambda_a != couplings.lambda_b:
        raise ValueError("orbit projection requires lambda_a == lambda_b")
    unit = 2.0 * couplings.lambda_a
    group = build_group(geometry)
    classes, which, masks = _orbit_table(group, n_exc)
    reps = np.array([c.representative for c in classes], dtype=np.int64)
    sizes = np.array([c.size for c in classes], dtype=np.int64)
    moves = [line_moves(geometry, reps, kind) for kind in ("row", "col")]
    src = np.concatenate([m[0] for m in moves])
    dst = np.searchsorted(masks, np.concatenate([m[1] for m in moves]))
    k = len(classes)
    counts = np.bincount(src * k + which[dst], minlength=k * k).reshape(k, k)
    from .linalg import operator_from_entries  # not at the top: polya never runs linalg

    block = orbit_block(sizes, src, which[dst], np.full(len(src), unit))
    matrix = operator_from_entries(k, *block).to_dense()
    return OrbitHamiltonian(
        classes=tuple(classes),
        matrix=matrix,
        hop_counts=counts,
        energy_unit=unit,
    )


@dataclass(frozen=True)
class OrbitDecomposition:
    """Amplitudes of a sector vector on normalized orbit sums."""

    amplitudes: np.ndarray
    norm_in_symmetric_sector: float
    complete: bool


def ground_state_orbit_decomposition(
    vector: np.ndarray,
    basis: SectorBasis,
    classes: list[OrbitClass] | tuple[OrbitClass, ...],
) -> OrbitDecomposition:
    """Overlap of a sector state with each normalized orbit sum.

    A permutation-symmetric state has all its weight here; a norm deficit
    flags degeneracy or explicit symmetry breaking.
    """
    amps = np.empty(len(classes))
    for i, cls in enumerate(classes):
        idx = basis.bulk_rank(np.asarray(cls.members))
        amps[i] = float(np.sum(vector[idx])) / np.sqrt(cls.size)
    norm = float(np.sum(amps**2))
    total = float(np.sum(np.asarray(vector) ** 2))
    return OrbitDecomposition(
        amplitudes=amps,
        norm_in_symmetric_sector=norm,
        complete=abs(norm - total) <= 1e-10,
    )


def match_up_to_class_permutation(
    mine: np.ndarray, reference: np.ndarray
) -> Optional[tuple[tuple[int, ...], float]]:
    """Find a simultaneous row/column permutation and scale mapping one
    symmetric matrix onto another; None when impossible.

    Returns ``(perm, scale)`` with ``mine[i, j] = scale * reference[perm[i],
    perm[j]]`` to 1e-12 relative.
    """
    k = mine.shape[0]
    if reference.shape != (k, k):
        return None
    for perm in iter_permutations(range(k)):
        permuted = reference[np.ix_(perm, perm)]
        mask = permuted != 0
        if not np.array_equal(mask, mine != 0):
            continue
        if not mask.any():
            return tuple(perm), 1.0
        ratios = mine[mask] / permuted[mask]
        scale = float(ratios[0])
        if np.all(np.abs(ratios - scale) <= 1e-12 * max(1.0, abs(scale))):
            return tuple(perm), scale
    return None
