"""Dense reference constructions, independent of the package internals.

Everything here lives in the explicit product space (2^N for spins,
2^N * (cap+1)^M with photons) built from Kronecker factors, and projects
onto sectors by reading diagonal counting operators.  Slow and obvious on
purpose: these are the ground truth the fast implementations are tested
against.  Spin operators are sparse Kronecker products; only the sector
block taken out of them is made dense.  Two helpers read the package:
:func:`expand_block_vectors` maps a symmetric-block solve back onto the
full sector through the canonical codes its classes are named by
(``SymmetricSector.classify``, for both models), and
:func:`jc_state_index` looks states up in a table of a ``JCBasis``'s own
``states()``.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import scipy.sparse as sp

# qubit basis: index 0 lowered, index 1 raised
SPLUS = np.array([[0.0, 0.0], [1.0, 0.0]])
SMINUS = SPLUS.T.copy()
SZ = np.diag([-1.0, 1.0])
NUM = np.diag([0.0, 1.0])


def site_operators(ops_by_site: dict, n_sites: int) -> sp.csr_matrix:
    """Embed qubit operators in sparse Kronecker passes; site j carries bit
    weight 2**j, so the product-space index equals the occupation bitmask.
    Each run of idle sites enters as one identity factor."""
    out = sp.identity(1, format="csr")
    done = 0
    for j in sorted(ops_by_site):
        out = sp.kron(ops_by_site[j], sp.kron(sp.identity(1 << (j - done)), out))
        done = j + 1
    return sp.kron(sp.identity(1 << (n_sites - done)), out, format="csr")


def sector_block(op, masks: list) -> np.ndarray:
    """Dense block of a product-space operator on the given basis states."""
    return op.tocsr()[masks][:, masks].toarray()


def pair_coherence_op(s: int, t: int, n_sites: int) -> sp.csr_matrix:
    """sigma+_s sigma-_t (site occupation when s == t)."""
    if s == t:
        return site_operators({s: NUM}, n_sites)
    return site_operators({s: SPLUS, t: SMINUS}, n_sites)


def dense_spin_full(geometry, couplings, include_lambda_shift=True) -> sp.csr_matrix:
    """Full 2^N spin Hamiltonian, sparse: line hops plus uniform splitting."""
    n = geometry.n_sites
    h = sp.csr_matrix((1 << n, 1 << n))
    for s, t, kind in geometry.line_pairs():
        lam = couplings.lambda_a if kind == "row" else couplings.lambda_b
        hop = site_operators({s: SPLUS, t: SMINUS}, n)
        h += 2.0 * lam * (hop + hop.T)
    coeff = couplings.omega_at / 2.0
    if include_lambda_shift:
        coeff += couplings.lambda_a + couplings.lambda_b
    for s in range(n):
        h += coeff * site_operators({s: SZ}, n)
    return h


def symmetry_defect(op) -> float:
    """Largest |H - H^T| entry of an operator held as its entries (duplicates
    add up); zero for an exactly symmetric assembly."""
    m = sp.coo_matrix((op.vals, (op.rows, op.cols)), shape=(op.dim, op.dim)).tocsr()
    d = m - m.T
    d.eliminate_zeros()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def sector_masks(n_sites: int, n_exc: int) -> list:
    return [m for m in range(1 << n_sites) if bin(m).count("1") == n_exc]


def dense_spin_sector(geometry, couplings, n_exc, include_lambda_shift=True):
    """(sector block, masks) sliced out of the full spin Hamiltonian."""
    h = dense_spin_full(geometry, couplings, include_lambda_shift)
    masks = sector_masks(geometry.n_sites, n_exc)
    return sector_block(h, masks), masks


def multiplet_columns(evals: np.ndarray, evecs: np.ndarray, rtol: float = 1e-8):
    """Ground-multiplet columns: everything within rtol of the bottom."""
    scale = max(1.0, abs(float(evals[0])))
    sel = np.nonzero(evals - evals[0] <= rtol * scale)[0]
    return evecs[:, sel]


def independent_pair_classes(lx: int, ly: int):
    """(shared-line pairs, unshared pairs) from index arithmetic alone."""
    nn, nnn = [], []
    for s in range(lx * ly):
        for t in range(s + 1, lx * ly):
            if s // lx == t // lx or s % lx == t % lx:
                nn.append((s, t))
            else:
                nnn.append((s, t))
    return nn, nnn


def spin_correlation_reference(geometry, couplings, n_exc, include_lambda_shift=True):
    """(C matrix, sigma_nn, sigma_nnn, ratio, multiplet size) from dense ED.

    C[s, t] is the raise-here/lower-there coherence averaged over the
    ground multiplet; the diagonal is the site occupation.
    """
    block, masks = dense_spin_sector(geometry, couplings, n_exc, include_lambda_shift)
    evals, evecs = np.linalg.eigh(block)
    cols = multiplet_columns(evals, evecs)
    n = geometry.n_sites
    c = np.zeros((n, n))
    for s in range(n):
        for t in range(n):
            op = sector_block(pair_coherence_op(s, t, n), masks)
            c[s, t] = float(np.mean(np.einsum("ik,ij,jk->k", cols, op, cols)))
    nn, nnn = independent_pair_classes(geometry.lx, geometry.ly)
    sigma_nn = float(np.mean([c[s, t] for s, t in nn]))
    sigma_nnn = float(np.mean([c[s, t] for s, t in nnn])) if nnn else 0.0
    ratio = sigma_nnn / sigma_nn if sigma_nn != 0.0 else None
    return c, sigma_nn, sigma_nnn, ratio, cols.shape[1]


def _expand_per_line(value, count):
    if isinstance(value, (int, float)):
        return [float(value)] * count
    return [float(v) for v in value]


def slot_operators(ops_by_slot: dict, dims: list) -> np.ndarray:
    """Embed operators on mixed-dimension slots, slot 0 major."""
    out = np.array([[1.0]])
    for j, d in enumerate(dims):
        out = np.kron(out, ops_by_slot.get(j, np.eye(d)))
    return out


def dense_jc_full(geometry, jc, cap):
    """(H, total-excitation diagonal) in the spin x photon product space.

    Photon slots follow the spin slots, rows before columns; each mode is
    truncated at occupation cap, matching a hard per-mode cutoff.
    """
    n = geometry.n_sites
    nm = geometry.n_modes
    dims = [2] * n + [cap + 1] * nm
    dim = int(np.prod(dims))
    lower = np.diag(np.sqrt(np.arange(1.0, cap + 1)), k=1)
    nphot = np.diag(np.arange(cap + 1.0))
    deltas = _expand_per_line(jc.delta_a, geometry.ly) + _expand_per_line(
        jc.delta_b, geometry.lx
    )
    h = np.zeros((dim, dim))
    ntot = np.zeros(dim)
    for s in range(n):
        h += jc.omega_at / 2.0 * slot_operators({s: SZ}, dims)
        ntot += np.diag(slot_operators({s: NUM}, dims))
    for m in range(nm):
        nm_op = slot_operators({n + m: nphot}, dims)
        h += deltas[m] * nm_op
        ntot += np.diag(nm_op)
    for s in range(n):
        row, col = geometry.row_col(s)
        for m in (row, geometry.ly + col):
            term = slot_operators({s: SPLUS, n + m: lower}, dims)
            h += jc.g * (term + term.T)
    return h, ntot


def dense_jc_sector(geometry, jc, n_total, cap):
    """(sector block, kept indices) of the capped product-space model."""
    h, ntot = dense_jc_full(geometry, jc, cap)
    idx = np.nonzero(np.abs(ntot - n_total) < 0.5)[0]
    return h[np.ix_(idx, idx)], idx


def jc_correlation_reference(geometry, jc, n_total, cap):
    """(sigma_nn, sigma_nnn, ratio) of the sector ground multiplet with the
    photons traced out, from dense ED in the product space."""
    h, ntot = dense_jc_full(geometry, jc, cap)
    keep = np.nonzero(np.abs(ntot - n_total) < 0.5)[0]
    block = h[np.ix_(keep, keep)]
    evals, evecs = np.linalg.eigh(block)
    cols = multiplet_columns(evals, evecs)
    n = geometry.n_sites
    dims = [2] * n + [cap + 1] * geometry.n_modes
    sl = np.ix_(keep, keep)
    c = np.zeros((n, n))
    for s in range(n):
        for t in range(n):
            if s == t:
                op = slot_operators({s: NUM}, dims)[sl]
            else:
                op = slot_operators({s: SPLUS, t: SMINUS}, dims)[sl]
            c[s, t] = float(np.mean(np.einsum("ik,ij,jk->k", cols, op, cols)))
    nn, nnn = independent_pair_classes(geometry.lx, geometry.ly)
    sigma_nn = float(np.mean([c[s, t] for s, t in nn]))
    sigma_nnn = float(np.mean([c[s, t] for s, t in nnn])) if nnn else 0.0
    ratio = sigma_nnn / sigma_nn if sigma_nn != 0.0 else None
    return sigma_nn, sigma_nnn, ratio


def brute_orbits(elements, n_sites: int, n_exc: int) -> list:
    """Orbits of the weight-``n_exc`` masks under a listed permutation group,
    found by applying every element to each mask not yet reached.  Returns
    sorted ``(size, representative, members)`` triples, members ascending."""
    perms = np.asarray(elements, dtype=np.int64)
    seen = set()
    out = []
    for sites in combinations(range(n_sites), n_exc):
        mask = sum(1 << s for s in sites)
        if mask in seen:
            continue
        images = np.zeros(len(perms), dtype=np.int64)
        for s in sites:
            images |= np.int64(1) << perms[:, s]  # bit s moves to bit perm[s]
        members = tuple(sorted(set(images.tolist())))
        seen.update(members)
        out.append((len(members), members[0], members))
    return sorted(out)


def _swap(i: int, j: int, x: int) -> int:
    return j if x == i else i if x == j else x


def brute_group(geometry, transpose=None) -> list:
    """Every site permutation of the row x column group of the array, with
    the transpose when asked (by default on squares), closed from adjacent
    line swaps by breadth-first composition.  Sorted element tuples."""
    lx, ly = geometry.lx, geometry.ly

    def perm(move):  # move takes (row, col) to its image cell
        images = (move(*divmod(s, lx)) for s in range(lx * ly))
        return tuple(c + lx * r for r, c in images)

    gens = [perm(lambda r, c, i=i: (_swap(i, i + 1, r), c)) for i in range(ly - 1)]
    gens += [perm(lambda r, c, i=i: (r, _swap(i, i + 1, c))) for i in range(lx - 1)]
    if (lx == ly) if transpose is None else transpose:
        gens.append(perm(lambda r, c: (c, r)))
    identity = tuple(range(lx * ly))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def brute_jc_orbits(elements, geometry, states: list) -> list:
    """Orbits of Jaynes-Cummings states ``(mask, photon counts)`` (row modes
    first) under a listed row x column group, each mode moved with its
    line: sorted tuples of ascending state indices."""
    lx, ly = geometry.lx, geometry.ly
    index = {state: i for i, state in enumerate(states)}
    seen = set()
    out = []
    for i, (mask, config) in enumerate(states):
        if i in seen:
            continue
        orbit = set()
        for p in elements:
            image = sum(1 << p[s] for s in range(lx * ly) if mask >> s & 1)
            moved = [0] * (lx + ly)
            for r in range(ly):
                moved[p[lx * r] // lx] = config[r]  # row r goes where its site 0 goes
            for c in range(lx):
                moved[ly + p[c] % lx] = config[ly + c]
            orbit.add(index[(image, tuple(moved))])
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return sorted(out)


def loop_canonical_codes(geometry, masks, modes=None, cap=0) -> tuple[list, list]:
    """Canonical codes (as tuples of int64 words) and hit counts one state
    and one shorter-side permutation at a time, in Python integers: the
    lines of the longer side as words (spins, mode count above them in a
    field as wide as ``cap`` needs), each word's spins permuted, the words
    sorted, the permuted shorter-side counts appended; the least item
    sequence over the permutations, packed first item highest into words of
    at most 63 bits."""
    lx, ly = geometry.lx, geometry.ly
    width, tall = min(lx, ly), ly > lx
    lines = [[r * lx + c for r in range(ly)] for c in range(lx)]  # columns
    if tall:
        lines = [[r * lx + c for c in range(lx)] for r in range(ly)]
    bits = 0 if modes is None else cap.bit_length()
    widths = [width + bits] * len(lines) + ([bits] * width if modes is not None else [])
    codes, hits = [], []
    for n, mask in enumerate(np.asarray(masks).tolist()):
        along = across = [0] * max(lx, ly)
        if modes is not None:
            rows, cols = list(modes[n][:ly]), list(modes[n][ly:])
            along, across = (rows, cols) if tall else (cols, rows)
        items = []
        for perm in permutations(range(width)):
            words = sorted(
                sum(((mask >> s) & 1) << perm[i] for i, s in enumerate(line)) | along[j] << width
                for j, line in enumerate(lines)
            )
            tail = [across[perm.index(i)] for i in range(width)] if modes is not None else []
            items.append(tuple(words + tail))
        least = min(items)
        packed, used = [], 63
        for item, w in zip(least, widths):
            if used + w > 63:
                packed.append(item)
                used = w
            else:
                packed[-1] = packed[-1] << w | item
                used += w
        codes.append(tuple(packed))
        hits.append(items.count(least))
    return codes, hits


def brute_cycle_index(elements) -> dict:
    """{cycle-length counts (b_1, ..., b_n): share of the elements}, from
    walking the cycles of every listed permutation."""
    types = Counter()
    for p in elements:
        counts = [0] * len(p)
        seen = set()
        for start in range(len(p)):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = p[x]
                length += 1
            if length:
                counts[length - 1] += 1
        types[tuple(counts)] += 1
    return {t: Fraction(c, len(elements)) for t, c in types.items()}


def successor_masks(n_sites: int, n_exc: int) -> np.ndarray:
    """Weight-``n_exc`` bitmasks in ascending order from the constant-time
    successor step (Gosper's hack: advance the lowest block of set bits and
    compact the rest to the bottom), one mask per Python iteration."""
    out = np.empty(comb(n_sites, n_exc), dtype=np.int64)
    v = (1 << n_exc) - 1
    for i in range(len(out)):
        out[i] = v
        if v:
            low = v & -v
            carry = v + low
            v = carry | (((v ^ carry) >> 2) // low)
    return out


def pair_loop_correlations(vectors: np.ndarray, basis):
    """(sigma_nn, sigma_nnn) of the given multiplet columns from the
    per-pair loop: ``C[s, t] = <sigma+_s sigma-_t>`` built one ordered site
    pair at a time (one mask selection and one binary search each), then
    averaged over the shared-line and the unshared pairs.  Works on any
    basis with mask blocks, so both models share it."""
    n = basis.geometry.n_sites
    columns = vectors.shape[1]
    c = np.zeros((n, n))
    for blk in basis.blocks:
        masks = blk.masks
        seg = vectors[blk.offset : blk.offset + len(masks) * blk.inner]
        seg = seg.reshape(len(masks), blk.inner, columns)
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                sel = np.nonzero(((masks >> t) & 1 == 1) & ((masks >> s) & 1 == 0))[0]
                if len(sel) == 0:
                    continue
                partner = np.searchsorted(masks, masks[sel] ^ np.int64((1 << s) | (1 << t)))
                c[s, t] += float((seg[partner] * seg[sel]).sum() / columns)
    nn, nnn = independent_pair_classes(basis.geometry.lx, basis.geometry.ly)
    return tuple(
        float(np.mean([c[s, t] for s, t in pairs])) if pairs else 0.0
        for pairs in (nn, nnn)
    )


def expand_block_vectors(spectrum, sector, masks: np.ndarray, modes=None) -> np.ndarray:
    """The block vectors of a symmetric-block solve expanded over the given
    states of the sector (the full table: masks, with their photon counts
    ``modes`` in a Jaynes-Cummings sector): each state's canonical code
    gives its class i, and its amplitude is ``c_i / sqrt(s_i)``."""
    masks = np.asarray(masks, dtype=np.int64)
    which = sector.classify(masks) if modes is None else sector.classify(masks, modes)
    return (spectrum.eigenvectors / np.sqrt(sector.sizes)[:, None])[which]


def jc_state_index(basis):
    """A function giving the basis index of states (raised-spin counts,
    spin masks, photon counts), each looked up in a dict of
    ``basis.states()``; a state the basis does not hold raises KeyError."""
    spins, masks, modes = basis.states()
    index = {}
    for i, state in enumerate(zip(spins.tolist(), masks.tolist(), map(tuple, modes.tolist()))):
        index.setdefault(state, i)  # a repeated state keeps its first index

    def lookup(spins, masks, modes):
        states = zip(spins.tolist(), masks.tolist(), map(tuple, modes.tolist()))
        return np.array([index[state] for state in states], dtype=np.int64)

    return lookup


def refuse(*args, **kwargs):
    """Stands in for a builder that a route refused by its row budget must
    never reach."""
    raise AssertionError("the route allocated past its row budget")
