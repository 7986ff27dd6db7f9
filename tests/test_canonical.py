"""Orbit classes from canonical codes against the cycle index, brute-force
orbits and the table classes of ``symmetry.orbits``."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

import cavityspin.basis
from cavityspin import canonical, spinmodel, symmetry
from cavityspin.basis import SectorBasis
from cavityspin.geometry import ArrayGeometry
from cavityspin.linalg import operator_from_entries
from cavityspin.params import SpinCouplings
from oracles import brute_group, brute_orbits, expand_block_vectors, loop_canonical_codes, refuse


@pytest.mark.parametrize(
    "lx, ly",
    [(1, 1), (1, 5), (5, 1), (4, 3), (3, 4), (7, 2), (2, 7), (4, 4), (5, 4), (4, 5)],
)
def test_class_counts_and_sizes_on_every_sector(lx, ly):
    geom = ArrayGeometry(lx, ly)
    group = symmetry.build_group(geom, include_transpose=False)
    inventory = symmetry.cycle_index(group).pattern_inventory()
    levels = range(geom.n_sites + 1)
    canonical.symmetric_sector.cache_clear()
    upward = [canonical.symmetric_sector(geom, n_exc) for n_exc in levels]
    for n_exc, sector in zip(levels, upward):
        assert sector.n == n_exc
        assert len(sector.sizes) == inventory[n_exc]
        assert sum(sector.sizes.tolist()) == comb(geom.n_sites, n_exc) == sector.dim
        assert np.all(np.diff(sector.codes) > 0)
        assert np.array_equal(
            sector.classify(sector.representatives), np.arange(len(sector.sizes))
        )
    # the same levels when the highest is asked for first
    canonical.symmetric_sector.cache_clear()
    downward = [canonical.symmetric_sector(geom, n_exc) for n_exc in reversed(levels)]
    for up, down in zip(upward, reversed(downward)):
        assert np.array_equal(up.codes, down.codes)
        assert np.array_equal(up.sizes, down.sizes)


@pytest.mark.parametrize(
    "lx, ly, photons", [(6, 2, False), (2, 6, True), (6, 6, False), (7, 6, True), (4, 4, True)]
)
def test_codes_in_blocks_match_the_one_permutation_loop(lx, ly, photons):
    # every shorter-side permutation runs at once on blocks of about 8192
    # (permutation, key) pairs: 6-wide tables of 40 keys span four blocks;
    # repeated states share their code; 7x6 codes with photons take 2 words
    geom = ArrayGeometry(lx, ly)
    rng = np.random.default_rng(10 * lx + ly)
    masks = rng.integers(0, 1 << geom.n_sites, size=40)
    masks = np.r_[masks, masks[:8]]
    modes = rng.integers(0, 4, size=(len(masks), geom.n_modes)) if photons else None
    codes, hits = canonical.canonical_codes(geom, masks, modes, 3)
    assert (list(map(tuple, codes.T.tolist())), hits.tolist()) == loop_canonical_codes(
        geom, masks, modes, 3
    )


def test_levels_are_built_once_and_read_only():
    geom = ArrayGeometry(4, 4)
    canonical.symmetric_sector.cache_clear()
    sector = canonical.symmetric_sector(geom, 10)  # built from levels 0..6
    assert canonical.symmetric_sector.cache_info().currsize == 8
    assert canonical.symmetric_sector(geom, 10) is sector
    for arr in (sector.representatives, sector.codes, sector.sizes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("lx, ly", [(4, 3), (3, 4), (2, 5), (3, 3), (1, 4), (4, 1)])
def test_codes_name_exactly_the_brute_force_orbits(lx, ly):
    geom = ArrayGeometry(lx, ly)
    elements = brute_group(geom, transpose=False)
    for n_exc in range(geom.n_sites + 1):
        ref = brute_orbits(elements, geom.n_sites, n_exc)
        sector = canonical.symmetric_sector(geom, n_exc)
        masks = np.array(sorted(m for _, _, members in ref for m in members), np.int64)
        classes: dict[int, list[int]] = {}
        for mask, i in zip(masks.tolist(), sector.classify(masks).tolist()):
            classes.setdefault(i, []).append(mask)
        assert sorted((len(m), m[0], tuple(m)) for m in classes.values()) == ref
        assert all(sector.sizes[i] == len(m) for i, m in classes.items())


@pytest.mark.parametrize("lx, ly, n_exc", [(5, 4, 10)])
def test_block_solve_matches_the_labelled_route(lx, ly, n_exc):
    # the grown classes against the table classes that symmetry.orbits
    # lists, their block solved dense
    geom = ArrayGeometry(lx, ly)
    c = SpinCouplings(lambda_a=-0.15, lambda_b=-0.07, omega_at=1.0)
    spec, sector = spinmodel.sector_ground(geom, c, n_exc)
    basis = SectorBasis(geom, n_exc)
    classes = symmetry.orbits(symmetry.build_group(geom, False), n_exc)
    which = np.empty(basis.dim, dtype=np.int64)
    for i, cls in enumerate(classes):
        which[basis.bulk_rank(np.asarray(cls.members))] = i
    reps = np.array([cls.representative for cls in classes])
    sizes = np.array([cls.size for cls in classes])
    src, dst, vals = spinmodel._sector_entries(geom, c, reps, n_exc, True)
    entries = canonical.orbit_block(sizes, src, which[basis.bulk_rank(dst)], vals)
    block = operator_from_entries(len(sizes), *entries).to_dense()
    energies, vectors = np.linalg.eigh(block)
    assert spec.ground_energy == pytest.approx(energies[0], rel=1e-12)
    labelled = (vectors[:, 0] / np.sqrt(sizes))[which]
    v = expand_block_vectors(spec, sector, basis.states)[:, 0]
    assert abs(v @ labelled) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_sector_refuses_what_its_codes_cannot_hold():
    with pytest.raises(ValueError):
        canonical.symmetric_sector(ArrayGeometry(3, 3), 10)
    with pytest.raises(ValueError, match="bitmask limit"):
        canonical.symmetric_sector(ArrayGeometry(9, 7), 2)  # 63 sites
    sector = canonical.symmetric_sector(ArrayGeometry(3, 3), 4)
    with pytest.raises(ValueError, match="outside this sector"):
        sector.classify(np.array([0b111], np.int64))
    # a Jaynes-Cummings state of another total, and one with a count past
    # the cap n_total = 3 that sets the width of the count fields
    geom = ArrayGeometry(3, 2)
    sector = canonical.symmetric_jc_sector(geom, 3)
    empty = np.zeros(1, np.int64)
    for modes in ([[1, 0, 0, 0, 0]], [[4, 0, 0, 0, 0]], [[4, -1, 0, 0, 0]]):
        with pytest.raises(ValueError, match="^state outside this sector$"):
            sector.classify(empty, np.array(modes))
    with pytest.raises(ValueError, match=r"^photon count outside \[0, 3\]$"):
        canonical.canonical_codes(geom, empty, np.array([[4, 0, 0, 0, 0]]), 3)


def test_two_word_jc_codes_classify_by_lookup_of_the_queried_states(monkeypatch):
    # 12x1 n_total=8: twelve 5-bit lines and the 4-bit row count take two
    # words; a column permutation moves a site and its mode together
    geom = ArrayGeometry(12, 1)
    sector = canonical.symmetric_jc_sector(geom, 8)
    assert sector.codes.shape == (2, 434)
    rows = list(zip(*sector.codes.tolist()))
    assert all(a < b for a, b in zip(rows, rows[1:]))
    masks, modes, index = sector.representatives, sector.modes, np.arange(434)
    assert np.array_equal(sector.classify(masks, modes), index)
    rng = np.random.default_rng(12)
    for _ in range(3):
        perm = rng.permutation(12)
        moved = modes.copy()
        moved[:, 1 + perm] = modes[:, 1:]
        assert np.array_equal(sector.classify(canonical.site_images(perm, masks), moved), index)
    coded, codes = [], canonical.canonical_codes

    def counting(geometry, masks, *args):
        coded.append(len(masks))
        return codes(geometry, masks, *args)

    monkeypatch.setattr(canonical, "canonical_codes", counting)
    assert np.array_equal(sector.classify(masks[7:12], modes[7:12]), index[7:12])
    assert coded == [5]


def test_bounded_compositions_match_the_filtered_product_in_lex_order():
    for total, parts, cap in itertools.product(range(6), range(5), range(6)):
        ref = [c for c in itertools.product(range(cap + 1), repeat=parts) if sum(c) == total]
        out = canonical.bounded_compositions(total, parts, cap)
        assert out.shape == (len(ref), parts) and out.tolist() == [list(c) for c in ref]
    # no head is repeated past the counts it can take: 30 quanta on 6 modes
    tracemalloc.start()
    try:
        out = canonical.bounded_compositions(30, 6, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (comb(35, 5), 6) and peak <= 3 * out.nbytes


def test_class_growth_is_refused_past_the_row_budget(monkeypatch):
    # 5x3 n=7 grows from the 26 classes of n=6, one candidate per site
    geom = ArrayGeometry(5, 3)
    canonical.symmetric_sector.cache_clear()
    canonical.symmetric_sector(geom, 6)
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 389)
    monkeypatch.setattr(canonical, "canonical_codes", refuse)
    with pytest.raises(ValueError, match="^class growth of 390 rows exceeds the budget 389$"):
        canonical.symmetric_sector(geom, 7)


def test_jc_class_growth_is_refused_past_the_row_budget(monkeypatch):
    # 3x3 n_total=6: the classes (1, 1, 3, 6, 7, 7, 6) of the spin levels
    # k = 0..6 times the C(11 - k, 5) photon configurations of each
    geom = ArrayGeometry(3, 3)
    for k in range(7):
        canonical.symmetric_sector(geom, k)
    canonical.symmetric_jc_sector.cache_clear()
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 1622)
    for name in ("bounded_compositions", "canonical_codes"):
        monkeypatch.setattr(canonical, name, refuse)
    with pytest.raises(ValueError, match="^class growth of 1623 rows exceeds the budget 1622$"):
        canonical.symmetric_jc_sector(geom, 6)
