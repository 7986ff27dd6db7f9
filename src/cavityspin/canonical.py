"""Orbit classes from canonical codes: the one partition method, and the
symmetric-block route of both models.

S_Ly x S_Lx permutes the rows and columns of an Ly x Lx array: its spin
configurations as 0/1 matrices, and the Jaynes-Cummings states with their
row and column photon counts.  A state's canonical code
(:func:`canonical_codes`) is shared by exactly the members of its orbit, so
no sector needs a table.  Spin representatives grow one raised spin at a
time from the empty array, in the spirit of McKay's isomorph-free
generation (*J. Algorithms*, 1998) (:func:`symmetric_sector`); those of a
Jaynes-Cummings sector pair the spin levels with the photon configurations
(:func:`symmetric_jc_sector`).  Both are one :class:`SymmetricSector`: its
classes ascend by code, and a state is classified by looking its code up.
Past the route floor :data:`FLOOR` both routes build their block as
entries out of the representative rows and solve it with
:func:`block_ground`; each counts its candidates and entries against
``basis.MAX_ROWS`` before it allocates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import permutations
from math import comb, factorial, prod
from typing import TYPE_CHECKING, Optional

import numpy as np

from .basis import MAX_SITES, check_rows
from .geometry import ArrayGeometry

if TYPE_CHECKING:
    from .linalg import SpectrumResult

# The route floor: a sector of at most FLOOR states is solved on its full
# matrix even where the orbit block would do (:func:`takes_orbit_block`).
# ``scripts/solver_sweep.py floor`` (fresh processes, 2 cores, median of 7):
# the routed solve of an attractive spin sector ties the dense one at 126-190
# states and wins from 210 on (0.006-0.009 s against 0.040-0.050 s at 560,
# two runs); that of a JC sector ties at 60-97 states and wins from 111 on.
FLOOR = 200


def site_images(perm, masks: np.ndarray) -> np.ndarray:
    """The masks with every site bit ``s`` moved to ``perm[s]``; a stack of
    permutations, shape (perms, sites), gives one row of images each."""
    perm = np.asarray(perm)
    img = np.zeros(perm.shape[:-1] + masks.shape, dtype=masks.dtype)
    for s in range(perm.shape[-1]):
        img |= ((masks >> s) & 1) << perm[..., s, None]
    return img


def orbit_block(
    sizes: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``P^T H P`` on normalized orbit sums, as entries (rows, cols, vals)
    from the entries of H out of one representative per class.

    Entry t of H has the class ``src[t]`` of its row (a representative),
    the class ``dst[t]`` of its column and the value ``vals[t]``; ``sizes``
    are the class sizes.  H commutes with the group, so the block is
    ``(E + E^T) / (2 sqrt(s_i s_j))`` with ``E = s_i sum vals`` the sum of H
    over both classes: each entry and, next to it, its transpose carry
    ``v sqrt(s_src / s_dst) / 2``, so duplicates summed in order add up to
    an exactly symmetric block.  No classes x classes array is built.
    """
    half = np.repeat(vals * np.sqrt(sizes[src] / sizes[dst]) / 2.0, 2)
    return np.c_[src, dst].ravel(), np.c_[dst, src].ravel(), half


def _line_sites(geometry: ArrayGeometry) -> np.ndarray:
    """Row j holds the sites of line j of the longer side (the columns of
    a wide array, the rows of a tall one), one per position along the
    shorter side: bit i of the line's code is the spin on site [j, i]."""
    if geometry.ly <= geometry.lx:
        return np.array([geometry.col_sites(c) for c in range(geometry.lx)])
    return np.array([geometry.row_sites(r) for r in range(geometry.ly)])


def _sort_lines(lines: list[np.ndarray]) -> list[np.ndarray]:
    """The line words of every state in ascending order: an insertion
    sorting network."""
    lines = list(lines)
    for i in range(1, len(lines)):
        for j in range(i, 0, -1):
            lo, hi = lines[j - 1], lines[j]
            lines[j - 1], lines[j] = np.minimum(lo, hi), np.maximum(lo, hi)
    return lines


def _pack(items: list[np.ndarray], widths: list[int]) -> np.ndarray:
    """Items of the given bit widths packed into int64 words of at most 63
    bits, first item highest; comparing the words one after the other
    compares the items one after the other.  Shape (words, states)."""
    words, used = [], 63
    for item, width in zip(items, widths):
        if used + width > 63:
            words.append(item)
            used = width
        else:
            words[-1] = (words[-1] << width) | item
            used += width
    return np.array(words)


def _distinct(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first state, the class of every state and the size of every
    class of equal codes (shape (words, states)), classes ascending by code."""
    # one word sorts about four times faster without the stable lexsort
    order = np.argsort(codes[0]) if len(codes) == 1 else np.lexsort(codes[::-1])
    ranked = codes[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    starts = np.flatnonzero(new)
    which = np.empty_like(order)
    which[order] = np.cumsum(new) - 1
    return np.minimum.reduceat(order, starts), which, np.diff(np.append(starts, len(order)))


def _rows(codes: np.ndarray) -> np.ndarray:
    """Codes (words, states) as one item per state that sorts as the code:
    its one word, or its words as the fields of a row."""
    if len(codes) == 1:
        return codes[0]
    fields = [(f"w{i}", np.int64) for i in range(len(codes))]
    return np.ascontiguousarray(codes.T).view(fields)[:, 0]


def canonical_codes(
    geometry: ArrayGeometry, masks: np.ndarray, modes: Optional[np.ndarray] = None, cap: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical code of every state, shape (words, states), and how many
    permutations of the shorter side reach it.

    A state is a spin mask, plus the photon counts ``modes`` (row modes
    first, one row per state) when given.  Each line of the longer side
    (:func:`_line_sites`) makes a word: its spins, its mode count above them
    in a field as wide as ``cap`` needs, so that the codes of one sector
    compare whichever states are coded; a count outside [0, cap] is refused.
    Under a permutation p of the shorter side the spins of every word are
    permuted, the words sorted and the shorter-side counts, permuted with p,
    appended; the code is the minimum over every p, packed by :func:`_pack`.
    Sorting absorbs the permutations of the longer side, so two states share
    a code exactly when a row x column permutation maps one onto the other.
    A spin code is one word (``basis.MAX_SITES``).  The words sorted under
    the identity are a key that the longer side cannot change, so p runs
    over the distinct keys only: every p at once, on blocks of about 8192
    (permutation, key) pairs.
    """
    width = min(geometry.lx, geometry.ly)
    lines = [
        sum(((masks >> s) & 1) << i for i, s in enumerate(sites))
        for sites in _line_sites(geometry)
    ]
    tail, bits = np.zeros((0, len(masks)), np.int64), 0
    if modes is not None:
        if not 0 <= modes.min(initial=0) <= modes.max(initial=0) <= cap:
            raise ValueError(f"photon count outside [0, {cap}]")
        bits = int(cap).bit_length()
        rows, cols = modes[:, : geometry.ly].T, modes[:, geometry.ly :].T
        along, tail = (cols, rows) if geometry.ly <= geometry.lx else (rows, cols)
        lines = [line | (count << width) for line, count in zip(lines, along)]
    widths = [width + bits] * len(lines) + [bits] * len(tail)
    lines = _sort_lines(lines)
    key = _pack(lines + list(tail), widths)
    first, which, _ = _distinct(key)
    lines = [line[first] for line in lines]
    tail = tail[:, first]
    values = np.arange(1 << (width + bits), dtype=np.int64)
    counts = values >> width << width
    perms = np.array(list(permutations(range(width))))
    tables = site_images(perms, values - counts) | counts
    inverse = np.argsort(perms, axis=1).T  # word i of the permuted tail is tail[inverse[i]]
    codes, hits = [], []
    for at in np.array_split(np.arange(len(first)), max(1, len(first) * len(perms) // 8192)):
        moved = _sort_lines([tables[:, line[at]] for line in lines])
        tails = list(tail[:, at][inverse]) if len(tail) else []
        tie, least = np.ones((len(perms), len(at)), dtype=bool), []
        for word in _pack(moved + tails, widths):  # the least code, word by word
            least.append(np.where(tie, word, np.iinfo(np.int64).max).min(axis=0))
            tie &= word == least[-1]
        codes.append(np.array(least))
        hits.append(tie.sum(axis=0))
    return np.concatenate(codes, axis=1)[:, which], np.concatenate(hits)[which]


@dataclass(frozen=True)
class SymmetricSector:
    """A sector of ``n`` excitations (raised spins plus photons) held as
    its S_Ly x S_Lx orbit classes, ascending by canonical code: per class
    the raised-spin count, a representative mask with its photon counts
    (row modes first; ``None`` in a spin sector), the code and the size.
    The arrays are read-only.

    A vector ``c`` on the classes stands for the sector vector with
    amplitude ``c_i / sqrt(s_i)`` on every member of class i.
    """

    geometry: ArrayGeometry
    n: int
    spins: np.ndarray = field(repr=False)
    representatives: np.ndarray = field(repr=False)
    modes: Optional[np.ndarray] = field(repr=False)
    codes: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.spins, self.representatives, self.modes, self.codes, self.sizes):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.sizes.sum())

    def classify(self, masks: np.ndarray, modes: Optional[np.ndarray] = None) -> np.ndarray:
        """Class index of every state of the sector, found by its code in
        the sorted table: only the given states are coded."""
        if modes is not None and not 0 <= modes.min(initial=0) <= modes.max(initial=0) <= self.n:
            raise ValueError("state outside this sector")  # a count the codes cannot hold
        table = _rows(self.codes)
        codes = _rows(canonical_codes(self.geometry, masks, modes, self.n)[0])
        idx = np.searchsorted(table, codes)
        if np.any(idx >= len(table)) or np.any(table[idx] != codes):
            raise ValueError("state outside this sector")
        return idx


@cache
def symmetric_sector(geometry: ArrayGeometry, n_exc: int) -> SymmetricSector:
    """The orbit classes of a spin sector, with no sector table, built once
    per process.

    The candidates of sector n <= N / 2 are the children (one raised spin
    added) of the representatives of sector n - 1, from the empty array up;
    past N / 2 they are the complements of those of sector N - n.  Either
    way the first candidate of every code represents its class.  A class
    has size ``|G| / |Stab|``, ``|Stab|`` the number of permutations of the
    shorter side that reach its code (:func:`canonical_codes`) times
    ``prod m_c!`` over the counts ``m_c`` of equal lines, checked against
    the group order and the sector dimension in Python integers
    (21! > 2**63).
    """
    n_sites = geometry.n_sites
    if not 0 <= n_exc <= n_sites:
        raise ValueError(f"n_exc={n_exc} outside [0, {n_sites}]")
    if n_sites > MAX_SITES:
        raise ValueError(f"n_sites={n_sites} exceeds bitmask limit {MAX_SITES}")
    if n_exc == 0:
        masks = np.zeros(1, dtype=np.int64)
    elif 2 * n_exc <= n_sites:
        reps = symmetric_sector(geometry, n_exc - 1).representatives[:, None]
        check_rows(len(reps) * n_sites, "class growth")
        bits = np.int64(1) << np.arange(n_sites, dtype=np.int64)
        masks = (reps | bits)[(reps & bits) == 0]
    else:
        reps = symmetric_sector(geometry, n_sites - n_exc).representatives
        masks = reps ^ ((np.int64(1) << n_sites) - 1)
    codes, hits = canonical_codes(geometry, masks)
    first = _distinct(codes)[0]
    codes = codes[:, first]
    width, n_lines = min(geometry.lx, geometry.ly), max(geometry.lx, geometry.ly)
    group_order = factorial(geometry.lx) * factorial(geometry.ly)
    sizes = []
    for code, reached in zip(codes[0].tolist(), hits[first].tolist()):
        lines = Counter((code >> (width * j)) & ((1 << width) - 1) for j in range(n_lines))
        size, rest = divmod(group_order, reached * prod(map(factorial, lines.values())))
        if rest:
            raise ArithmeticError("class size does not divide group order")
        sizes.append(size)
    if sum(sizes) != comb(n_sites, n_exc):
        raise ArithmeticError("class sizes do not add up to the sector dimension")
    spins = np.full(len(first), n_exc, dtype=np.int64)
    return SymmetricSector(
        geometry, n_exc, spins, masks[first], None, codes, np.array(sizes, dtype=np.int64)
    )


def bounded_compositions(total: int, parts: int, cap: int) -> np.ndarray:
    """All distributions of ``total`` quanta over ``parts`` capped modes,
    lexicographically ascending, shape (count, parts): grown one mode at a
    time, each head followed by every count that leaves quanta the modes
    after it can hold, the last mode given the rest."""
    heads, rest = [], np.array([total] if 0 <= total <= parts * cap else [], dtype=np.int64)
    for left in range(parts - 1, 0, -1):
        lo = np.maximum(rest - left * cap, 0)
        counts = np.minimum(rest, cap) - lo + 1
        at = np.repeat(np.arange(len(rest)), counts)
        count = lo[at] + np.arange(len(at)) - (np.cumsum(counts) - counts)[at]
        heads, rest = [head[at] for head in heads] + [count], rest[at] - count
    return np.column_stack(heads + [rest]) if parts else np.zeros((int(total == 0), 0), np.int64)


@cache
def symmetric_jc_sector(geometry: ArrayGeometry, n_total: int) -> SymmetricSector:
    """The orbit classes of an untruncated Jaynes-Cummings sector, built
    once per process with no sector table.  Level k pairs the
    representatives of ``symmetric_sector(geometry, k)`` with every photon
    configuration of ``n_total - k`` quanta, and the first candidate of
    every code represents its class.  The candidates that share a code are
    the orbit of the representative's stabilizer on the configurations, so
    a class has the spin-class size times their number."""
    m = geometry.n_modes
    spins = [symmetric_sector(geometry, k) for k in range(min(geometry.n_sites, n_total) + 1)]
    grown = sum(len(s.sizes) * comb(n_total - s.n + m - 1, m - 1) for s in spins)
    check_rows(grown, "class growth")
    levels = []
    for spin in spins:
        configs = bounded_compositions(n_total - spin.n, m, n_total - spin.n)
        pairs = np.repeat(np.arange(len(spin.sizes)), len(configs))
        levels.append((spin.spins[pairs], spin.representatives[pairs],
                       np.tile(configs, (len(spin.sizes), 1)), spin.sizes[pairs]))
    spins, masks, modes, sizes = (np.concatenate(part) for part in zip(*levels))
    codes = canonical_codes(geometry, masks, modes, n_total)[0]
    first, _, counts = _distinct(codes)
    sizes = sizes[first] * counts
    group_order = factorial(geometry.lx) * factorial(geometry.ly)
    if any(group_order % s for s in set(sizes.tolist())):  # in Python integers
        raise ArithmeticError("class size does not divide group order")
    return SymmetricSector(
        geometry, n_total, spins[first], masks[first], modes[first], codes[:, first], sizes
    )


def takes_orbit_block(dim: int) -> bool:
    """The size rule of both symmetric-block routes: a sector past the
    route floor :data:`FLOOR`.  What a route holds is bounded by the row
    budget ``basis.MAX_ROWS``, not by the sector dimension."""
    return FLOOR < dim


def block_ground(sizes, src, dst, vals, seed: int) -> SpectrumResult:
    """Ground pair of the orbit block, solved from its entries
    (:func:`orbit_block`), of an operator given by its entries out of the
    representative rows, its vector on the normalized orbit sums.  The caller
    vouches that the sector ground state is simple and symmetric."""
    # imported here, not at the top, so that a polya process never runs linalg
    from .linalg import ground_state, operator_from_entries

    block = operator_from_entries(len(sizes), *orbit_block(sizes, src, dst, vals))
    return replace(ground_state(block, seed=seed), method="symmetric-block")
