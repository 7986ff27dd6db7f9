"""Array symmetry group, orbit counting, and orbit-basis projection."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

import cavityspin.basis
from cavityspin import canonical, jcmodel, spinmodel, symmetry
from cavityspin.basis import SectorBasis
from cavityspin.geometry import ArrayGeometry
from cavityspin.linalg import operator_from_entries
from cavityspin.params import EffectiveJCParams, SpinCouplings
from oracles import brute_cycle_index, brute_group, brute_orbits, refuse


def test_group_orders():
    # (row perms) x (col perms), doubled by transpose on squares
    assert symmetry.build_group(ArrayGeometry(2, 2)).order == 8
    assert symmetry.build_group(ArrayGeometry(3, 3)).order == 72
    assert symmetry.build_group(ArrayGeometry(3, 2)).order == 12
    assert symmetry.build_group(ArrayGeometry(4, 4)).order == 1152
    assert symmetry.build_group(ArrayGeometry(2, 2), include_transpose=False).order == 4


def test_transpose_requires_square():
    with pytest.raises(ValueError):
        symmetry.build_group(ArrayGeometry(3, 2), include_transpose=True)


def test_no_site_cap():
    geom = ArrayGeometry(5, 4)
    group = symmetry.build_group(geom)
    assert group.order == 2880
    classes = symmetry.orbits(group, 10)
    assert symmetry.polya_count(group, 10) == len(classes) == 159
    assert sum(c.size for c in classes) == comb(20, 10) == 184_756
    line = symmetry.orbits(symmetry.build_group(ArrayGeometry(17, 1)), 3)
    assert [c.size for c in line] == [comb(17, 3)]


@pytest.mark.parametrize(
    "lx, ly, transpose, total, at",
    [
        (4, 4, False, 317, None),
        (5, 5, False, 5_624, None),
        (6, 6, False, 251_610, None),
        (7, 7, False, 33_642_660, None),
        (5, 4, None, 1_053, None),
        (6, 6, True, 127_757, (18, 15_331)),
    ],
)
def test_cycle_index_totals_without_enumeration(lx, ly, transpose, total, at):
    # n x n totals without transpose are OEIS A002724
    group = symmetry.build_group(ArrayGeometry(lx, ly), transpose)
    inventory = symmetry.cycle_index(group).pattern_inventory()
    assert sum(inventory) == total
    if at is not None:
        assert inventory[at[0]] == at[1]


@pytest.mark.parametrize("transpose", [None, False])
@pytest.mark.parametrize(
    "lx, ly",
    [(1, 1), (2, 1), (1, 4), (3, 2), (4, 3), (6, 2), (2, 2), (3, 3), (4, 4)],
)
def test_closed_group_data_match_brute_group(lx, ly, transpose):
    geom = ArrayGeometry(lx, ly)
    group = symmetry.build_group(geom, transpose)
    elements = brute_group(geom, transpose)
    assert group.order == len(elements)
    assert dict(symmetry.cycle_index(group).terms) == brute_cycle_index(elements)


def test_cycle_type_known_permutations():
    assert symmetry.cycle_type((0, 1, 2, 3)) == (4, 0, 0, 0)
    assert symmetry.cycle_type((1, 0, 2, 3)) == (2, 1, 0, 0)
    assert symmetry.cycle_type((1, 2, 3, 0)) == (0, 0, 0, 1)


def test_plaquette_cycle_index_exact():
    ci = symmetry.cycle_index(symmetry.build_group(ArrayGeometry(2, 2)))
    assert dict(ci.terms) == {
        (4, 0, 0, 0): Fraction(1, 8),
        (2, 1, 0, 0): Fraction(2, 8),
        (0, 2, 0, 0): Fraction(3, 8),
        (0, 0, 0, 1): Fraction(2, 8),
    }
    assert ci.pattern_inventory() == [1, 1, 2, 1, 1]
    # summed over n_exc: all inequivalent two-colorings
    assert sum(ci.pattern_inventory()) == 6


def test_polya_counts_match_orbit_partitions():
    for lx, ly in [(2, 2), (3, 2), (3, 3)]:
        geom = ArrayGeometry(lx, ly)
        group = symmetry.build_group(geom)
        n = geom.n_sites
        upper = n // 2 if (lx, ly) == (3, 3) else n
        for n_exc in range(upper + 1):
            classes = symmetry.orbits(group, n_exc)
            assert symmetry.polya_count(group, n_exc) == len(classes)
            assert sum(c.size for c in classes) == comb(n, n_exc)
            for c in classes:
                assert c.size * c.stabilizer_order == group.order
                assert c.representative == min(c.members)
                assert c.members == tuple(sorted(c.members))
            keys = [(c.size, c.representative) for c in classes]
            assert keys == sorted(keys)


def test_polya_count_bounds():
    group = symmetry.build_group(ArrayGeometry(2, 2))
    with pytest.raises(ValueError):
        symmetry.polya_count(group, 5)


@pytest.mark.parametrize(
    "lx, ly, transpose",
    [
        (4, 3, None),
        (6, 2, None),
        (1, 4, None),
        (2, 1, None),
        (3, 3, False),
        (4, 4, False),
        (2, 2, None),
        (3, 3, None),
        (4, 4, True),
    ],
)
def test_orbits_match_brute_force_group_action(lx, ly, transpose):
    geom = ArrayGeometry(lx, ly)
    group = symmetry.build_group(geom, transpose)
    elements = brute_group(geom, transpose)
    for n_exc in range(geom.n_sites + 1):
        classes = symmetry.orbits(group, n_exc)
        ref = brute_orbits(elements, geom.n_sites, n_exc)
        assert [(c.size, c.representative, c.members) for c in classes] == ref
        assert all(c.size * c.stabilizer_order == group.order for c in classes)


def test_orbit_hamiltonian_equals_brute_projection():
    for (lx, ly), n_exc, lam in [((3, 3), 4, -0.3), ((2, 2), 2, 0.7)]:
        geom = ArrayGeometry(lx, ly)
        c = SpinCouplings(lambda_a=lam, lambda_b=lam, omega_at=1.0)
        oh = symmetry.orbit_basis_hamiltonian(geom, c, n_exc)
        basis = SectorBasis(geom, n_exc)
        # zero splitting and no shift leave only the hops
        hop_only = SpinCouplings(lambda_a=lam, lambda_b=lam, omega_at=0.0)
        hop = spinmodel.build_sector_hamiltonian(
            geom, hop_only, basis, include_lambda_shift=False
        ).to_dense()
        p = np.zeros((basis.dim, len(oh.classes)))
        for i, cls in enumerate(oh.classes):
            p[basis.bulk_rank(np.asarray(cls.members)), i] = 1.0 / np.sqrt(cls.size)
        projected = p.T @ hop @ p
        assert np.allclose(oh.matrix, projected, atol=1e-12)
        assert np.array_equal(oh.matrix, oh.matrix.T)
        assert oh.energy_unit == pytest.approx(2.0 * lam)
        rebuilt = oh.energy_unit * oh.hop_counts * np.sqrt(
            np.array([c_.size for c_ in oh.classes], float)[:, None]
            / np.array([c_.size for c_ in oh.classes], float)[None, :]
        )
        assert np.allclose(rebuilt, oh.matrix)
    # the builder itself, on entries out of the class representatives: a
    # spin sector at lambda_a != lambda_b with the shifted diagonal, on its
    # canonical-code classes, and the routed Jaynes-Cummings sector 3x2
    # n_total=3 (220 states) with its g sqrt(n + 1) amplitudes
    geom = ArrayGeometry(4, 3)
    c = SpinCouplings(lambda_a=-0.13, lambda_b=-0.29, omega_at=1.1)
    basis = SectorBasis(geom, 5)
    full = spinmodel.build_sector_hamiltonian(geom, c, basis).to_dense()
    sector = canonical.symmetric_sector(geom, 5)
    src, dst, vals = spinmodel._sector_entries(geom, c, sector.representatives, 5, True)
    entries = canonical.orbit_block(sector.sizes, src, sector.classify(dst), vals)
    block = operator_from_entries(len(sector.sizes), *entries).to_dense()
    _assert_brute_projection(block, full, sector.classify(basis.states), sector.sizes)

    geom = ArrayGeometry(3, 2)
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.5)
    sector, *entries = jcmodel._sector_entries(geom, jc, 3, None)
    assert isinstance(sector, canonical.SymmetricSector) and sector.modes is not None
    entries = canonical.orbit_block(sector.sizes, *entries)
    block = operator_from_entries(len(sector.sizes), *entries).to_dense()
    basis = jcmodel.JCBasis(geom, 3)
    h = jcmodel.build_jc_hamiltonian(geom, jc, basis)
    _, masks, modes = basis.states()
    _assert_brute_projection(block, h.to_dense(), sector.classify(masks, modes), sector.sizes)


def _assert_brute_projection(block, dense, which, sizes):
    p = np.zeros((len(which), len(sizes)))
    p[np.arange(len(which)), which] = 1.0 / np.sqrt(sizes[which])
    assert np.allclose(block, p.T @ dense @ p, rtol=0, atol=1e-12)
    assert np.array_equal(block, block.T)


def test_block_builder_checks_class_sizes_against_the_group_order(monkeypatch):
    # every orbit block runs a closed-order check; one code for every
    # state makes every table one class
    geom = ArrayGeometry(2, 2)
    monkeypatch.setattr(canonical, "FLOOR", 0)
    canonical.symmetric_sector.cache_clear()  # no level is reused
    canonical.symmetric_jc_sector.cache_clear()
    spin_codes = canonical.canonical_codes

    def one_code(geometry, masks, modes=None, cap=0):
        return np.zeros((1, len(masks)), np.int64), np.ones(len(masks), np.int64)

    monkeypatch.setattr(canonical, "canonical_codes", one_code)
    # the spin classes grow from the empty array: its one class would have
    # size 4 / 2! = 2, not the 1 of the sector, for the orbit-basis
    # projection and the spin route alike
    equal = SpinCouplings(lambda_a=-0.2, lambda_b=-0.2, omega_at=1.0)
    with pytest.raises(ArithmeticError, match="sector dimension"):
        symmetry.orbit_basis_hamiltonian(geom, equal, 2)
    c = SpinCouplings(lambda_a=-0.2, lambda_b=-0.3, omega_at=1.0)
    with pytest.raises(ArithmeticError, match="sector dimension"):
        spinmodel.sector_ground(geom, c, 2)
    # the Jaynes-Cummings classes grow from the spin levels and fail with
    # them; with the spin codes kept, one code for every Jaynes-Cummings
    # state makes the three 2-spin classes of n_total=2 one class of size 6
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.0)
    with pytest.raises(ArithmeticError, match="sector dimension"):
        jcmodel.jc_sector_ground(geom, jc, 1)

    def photon_code(geometry, masks, modes=None, cap=0):
        return spin_codes(geometry, masks) if modes is None else one_code(geometry, masks)

    monkeypatch.setattr(canonical, "canonical_codes", photon_code)
    canonical.symmetric_sector.cache_clear()
    with pytest.raises(ArithmeticError, match="group order"):
        jcmodel.jc_sector_ground(geom, jc, 2)


def test_orbit_hamiltonian_requires_equal_couplings():
    geom = ArrayGeometry(2, 2)
    c = SpinCouplings(lambda_a=-0.2, lambda_b=-0.3, omega_at=1.0)
    with pytest.raises(ValueError):
        symmetry.orbit_basis_hamiltonian(geom, c, 2)


def test_plaquette_ground_state_lives_in_symmetric_sector():
    geom = ArrayGeometry(2, 2)
    c = SpinCouplings(lambda_a=-0.4, lambda_b=-0.4, omega_at=1.0)
    spec, basis = spinmodel.sector_ground(geom, c, 2)
    group = symmetry.build_group(geom)
    classes = symmetry.orbits(group, 2)
    dec = symmetry.ground_state_orbit_decomposition(
        spec.eigenvectors[:, 0], basis, classes
    )
    assert dec.complete
    assert dec.norm_in_symmetric_sector == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(dec.amplitudes), 1.0 / np.sqrt(2.0), atol=1e-10)


def test_decomposition_flags_asymmetric_vector():
    geom = ArrayGeometry(2, 2)
    basis = SectorBasis(geom, 1)
    classes = symmetry.orbits(symmetry.build_group(geom), 1)
    assert len(classes) == 1 and classes[0].size == 4
    e0 = np.zeros(basis.dim)
    e0[0] = 1.0
    dec = symmetry.ground_state_orbit_decomposition(e0, basis, classes)
    assert not dec.complete
    assert dec.norm_in_symmetric_sector == pytest.approx(0.25, abs=1e-12)


def test_match_up_to_class_permutation_roundtrip():
    rng = np.random.default_rng(13)
    a = np.array(
        [
            [3.0, 0.0, 2.0, 0.0, 1.0],
            [0.0, 0.0, 4.0, 2.0, 0.0],
            [2.0, 4.0, 2.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 4.0, 5.0],
            [1.0, 0.0, 0.0, 5.0, 0.0],
        ]
    )
    perm = tuple(rng.permutation(5))
    inv = np.argsort(perm)
    # reference[perm][:, perm] must equal a / scale
    scale = -2.5
    reference = (a / scale)[np.ix_(inv, inv)]
    found = symmetry.match_up_to_class_permutation(a, reference)
    assert found is not None
    fperm, fscale = found
    assert np.allclose(a, fscale * reference[np.ix_(fperm, fperm)])
    broken = reference.copy()
    broken[0, 1] = broken[1, 0] = 7.0
    assert symmetry.match_up_to_class_permutation(a, broken) is None
    assert symmetry.match_up_to_class_permutation(a, np.eye(4)) is None


def test_orbit_tables_are_refused_past_the_row_budget(monkeypatch):
    # the members of 3x3 n=4 are its C(9, 4) = 126 table states
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 125)
    monkeypatch.setattr(cavityspin.basis, "np", None)
    monkeypatch.setattr(symmetry, "grown_classes", refuse)
    with pytest.raises(ValueError, match="^sector table of 126 rows exceeds the budget 125$"):
        symmetry.orbits(symmetry.build_group(ArrayGeometry(3, 3)), 4)
