"""Permutation symmetry of the array model: counting and block reduction.

With uniform couplings the spin Hamiltonian commutes with every permutation
of whole rows and whole columns, plus the transpose when the array is square
and the two couplings are equal.  The group acts on spin configurations;
its orbits label equivalence classes of states, counted without enumeration
by the cycle index polynomial (coefficients kept as exact rationals) and the
two-color pattern inventory.  Projecting the Hamiltonian onto normalized
orbit sums gives a small dense block that contains the permutation-symmetric
part of the spectrum, including the ground state for attractive couplings.

Orbit labels are formed from generator images alone, so they need no
materialized group and no 16-site cap: ``spinmodel.sector_ground`` labels
attractive sectors of up to ``MAX_LABELLED_DIM`` states under the
row x column group this way and solves on their orbit block.  Class
tables with stabilizer orders, the cycle index and ``orbit_basis_hamiltonian``
read the group order and so keep the cap.  The hop counts between classes
come from ``spinmodel.class_hop_counts``, the model's one hop rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations as iter_permutations
from typing import Optional

import numpy as np

from .basis import SectorBasis, enumerate_masks
from .geometry import ArrayGeometry
from .params import SpinCouplings
from .spinmodel import class_hop_counts

MAX_MATERIALIZED_SITES = 16
MAX_LABELLED_DIM = 2_000_000

Perm = tuple[int, ...]


@dataclass(frozen=True)
class PermutationGroup:
    """A site-permutation group with optional materialized element list."""

    degree: int
    generators: tuple[Perm, ...]
    elements: Optional[tuple[Perm, ...]] = None

    @property
    def order(self) -> int:
        if self.elements is None:
            raise ValueError("group was built without materialized elements")
        return len(self.elements)


def _compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(q)))


def _row_swap_perm(geometry: ArrayGeometry, i: int, j: int) -> Perm:
    images = list(range(geometry.n_sites))
    for col in range(geometry.lx):
        images[geometry.site(i, col)] = geometry.site(j, col)
        images[geometry.site(j, col)] = geometry.site(i, col)
    return tuple(images)


def _col_swap_perm(geometry: ArrayGeometry, i: int, j: int) -> Perm:
    images = list(range(geometry.n_sites))
    for row in range(geometry.ly):
        images[geometry.site(row, i)] = geometry.site(row, j)
        images[geometry.site(row, j)] = geometry.site(row, i)
    return tuple(images)


def _transpose_perm(geometry: ArrayGeometry) -> Perm:
    if geometry.lx != geometry.ly:
        raise ValueError("transpose requires a square array")
    images = list(range(geometry.n_sites))
    for row in range(geometry.ly):
        for col in range(geometry.lx):
            images[geometry.site(row, col)] = geometry.site(col, row)
    return tuple(images)


def build_group(
    geometry: ArrayGeometry,
    include_transpose: Optional[bool] = None,
    *,
    materialize: bool = True,
) -> PermutationGroup:
    """Row-permutation x column-permutation group, optionally with transpose.

    ``include_transpose=None`` auto-includes it exactly for square arrays
    (the coupling-equality condition is the caller's responsibility when the
    group is used to block-reduce a Hamiltonian).  Materialization is capped
    at 16 sites; beyond that only generators are returned.
    """
    gens: list[Perm] = []
    for i in range(geometry.ly - 1):
        gens.append(_row_swap_perm(geometry, i, i + 1))
    for i in range(geometry.lx - 1):
        gens.append(_col_swap_perm(geometry, i, i + 1))
    if include_transpose is None:
        include_transpose = geometry.lx == geometry.ly
    if include_transpose:
        gens.append(_transpose_perm(geometry))
    if not gens:
        gens.append(tuple(range(geometry.n_sites)))
    if not materialize:
        return PermutationGroup(degree=geometry.n_sites, generators=tuple(gens))
    if geometry.n_sites > MAX_MATERIALIZED_SITES:
        raise ValueError(
            f"{geometry.n_sites} sites exceeds the materialization cap "
            f"{MAX_MATERIALIZED_SITES}; pass materialize=False for generators only"
        )
    identity = tuple(range(geometry.n_sites))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in gens:
                q = _compose(gen, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    elements = tuple(sorted(seen))
    return PermutationGroup(
        degree=geometry.n_sites, generators=tuple(gens), elements=elements
    )


def cycle_type(perm: Perm) -> tuple[int, ...]:
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

    def coefficient(self, ctype: tuple[int, ...]) -> Fraction:
        for t, c in self.terms:
            if t == ctype:
                return c
        return Fraction(0)

    def substitute(self, values: list[Fraction]) -> Fraction:
        """Evaluate with x_j = values[j-1]."""
        total = Fraction(0)
        for ctype, coeff in self.terms:
            term = coeff
            for j, b in enumerate(ctype, start=1):
                if b:
                    term *= values[j - 1] ** b
            total += term
        return total

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
    if group.elements is None:
        raise ValueError("cycle index needs materialized elements")
    counts: dict[tuple[int, ...], int] = {}
    for p in group.elements:
        t = cycle_type(p)
        counts[t] = counts.get(t, 0) + 1
    order = group.order
    terms = tuple(
        (t, Fraction(c, order)) for t, c in sorted(counts.items(), reverse=True)
    )
    return CycleIndexPolynomial(degree=group.degree, terms=terms)


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


def _orbit_labels(group: PermutationGroup, masks: np.ndarray) -> np.ndarray:
    """Per sector mask (``masks`` ascending), the index of its orbit's
    smallest mask.

    Orbits are the connected components of the Schreier graph on the
    generators, so only generator images are formed (one vectorized pass per
    site); minimum labels are pushed along those edges and compressed by
    pointer jumping until they stop changing.  Only generators are read, so
    a group built with ``materialize=False`` labels any sector up to
    ``MAX_LABELLED_DIM`` states.
    """
    dim = len(masks)
    if dim > MAX_LABELLED_DIM:
        raise ValueError(f"sector dimension {dim} too large to partition")
    images = []
    for gen in group.generators:
        img = np.zeros_like(masks)
        for s, t in enumerate(gen):
            img |= ((masks >> s) & 1) << t
        images.append(np.searchsorted(masks, img))
    label = np.arange(dim)
    while True:
        new = label
        for img in images:
            new = np.minimum(new, new[img])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _orbit_table(
    group: PermutationGroup, masks: np.ndarray
) -> tuple[list[OrbitClass], np.ndarray]:
    """Orbit classes of the sector ``masks`` (ascending) sorted by
    (size, representative), and the class index of every sector state."""
    order = group.order
    labels = _orbit_labels(group, masks)
    reps, which, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if np.any(order % sizes):
        raise ArithmeticError("orbit size does not divide group order")
    grouped = masks[np.argsort(labels, kind="stable")]
    members = np.split(grouped, np.cumsum(sizes)[:-1])
    # rep indices ascend with their masks, so this is (size, representative)
    ranked = np.lexsort((reps, sizes))
    classes = [
        OrbitClass(
            representative=int(masks[reps[i]]),
            size=int(sizes[i]),
            stabilizer_order=order // int(sizes[i]),
            members=tuple(members[i].tolist()),
        )
        for i in ranked
    ]
    position = np.empty_like(ranked)
    position[ranked] = np.arange(len(ranked))
    return classes, position[which]


def orbits(group: PermutationGroup, n_exc: int) -> list[OrbitClass]:
    """Partition of the sector into orbit classes, sorted by (size, rep)."""
    return _orbit_table(group, enumerate_masks(group.degree, n_exc))[0]


@dataclass(frozen=True)
class OrbitHamiltonian:
    """Interaction projected onto normalized orbit-sum states.

    ``matrix`` is in energy units; ``hop_counts[i][j]`` is the integer number
    of single-excitation moves from any fixed member of class i into class j
    (well defined because the Hamiltonian commutes with the group), so
    ``matrix[i, j] = 2*lambda * hop_counts[i][j] * sqrt(size_i / size_j)``.
    """

    classes: tuple[OrbitClass, ...]
    matrix: np.ndarray
    hop_counts: np.ndarray
    energy_unit: float  # the 2*lambda prefactor


def orbit_basis_hamiltonian(
    geometry: ArrayGeometry,
    couplings: SpinCouplings,
    n_exc: int,
    *,
    include_transpose: Optional[bool] = None,
) -> OrbitHamiltonian:
    """Project the hopping interaction onto the orbit basis.

    Requires equal row and column couplings; the group must commute with
    the Hamiltonian for the projection to close.
    """
    if couplings.lambda_a != couplings.lambda_b:
        raise ValueError("orbit projection requires lambda_a == lambda_b")
    lam = couplings.lambda_a
    group = build_group(geometry, include_transpose)
    masks = enumerate_masks(geometry.n_sites, n_exc)
    classes, which = _orbit_table(group, masks)
    reps = np.array([c.representative for c in classes], dtype=np.int64)
    # with the transpose in the group only the row + column sum is invariant
    hop_row, hop_col = class_hop_counts(geometry, masks, which, reps)
    counts = hop_row + hop_col
    sizes = np.array([c.size for c in classes], dtype=float)
    unit = 2.0 * lam
    matrix = unit * counts * np.sqrt(sizes[:, None] / sizes[None, :])
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
    *,
    tol: float = 1e-10,
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
        complete=abs(norm - total) <= tol,
    )


def match_up_to_class_permutation(
    mine: np.ndarray,
    reference: np.ndarray,
    *,
    rtol: float = 1e-12,
) -> Optional[tuple[tuple[int, ...], float]]:
    """Find a simultaneous row/column permutation and scale mapping one
    symmetric matrix onto another; None when impossible.

    Returns ``(perm, scale)`` with ``mine[i, j] = scale * reference[perm[i],
    perm[j]]``.
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
        if np.all(np.abs(ratios - scale) <= rtol * max(1.0, abs(scale))):
            return tuple(perm), scale
    return None
