"""Array symmetry group, orbit counting, and orbit-basis projection."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cavityspin import spinmodel, symmetry
from cavityspin.basis import SectorBasis
from cavityspin.geometry import ArrayGeometry
from cavityspin.params import SpinCouplings


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


def test_materialization_cap():
    geom = ArrayGeometry(5, 4)
    with pytest.raises(ValueError):
        symmetry.build_group(geom)
    gens_only = symmetry.build_group(geom, materialize=False)
    assert gens_only.elements is None
    with pytest.raises(ValueError):
        _ = gens_only.order
    with pytest.raises(ValueError):
        symmetry.cycle_index(gens_only)
    with pytest.raises(ValueError):
        symmetry.orbits(gens_only, 1)


def test_cycle_type_known_permutations():
    assert symmetry.cycle_type((0, 1, 2, 3)) == (4, 0, 0, 0)
    assert symmetry.cycle_type((1, 0, 2, 3)) == (2, 1, 0, 0)
    assert symmetry.cycle_type((1, 2, 3, 0)) == (0, 0, 0, 1)


def test_plaquette_cycle_index_exact():
    ci = symmetry.cycle_index(symmetry.build_group(ArrayGeometry(2, 2)))
    assert ci.coefficient((4, 0, 0, 0)) == Fraction(1, 8)
    assert ci.coefficient((2, 1, 0, 0)) == Fraction(2, 8)
    assert ci.coefficient((0, 2, 0, 0)) == Fraction(3, 8)
    assert ci.coefficient((0, 0, 0, 1)) == Fraction(2, 8)
    assert len(ci.terms) == 4
    assert sum(c for _, c in ci.terms) == Fraction(1)
    assert ci.pattern_inventory() == [1, 1, 2, 1, 1]
    # x_j -> 2 counts all inequivalent two-colorings
    assert ci.substitute([Fraction(2)] * 4) == Fraction(6)


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


def test_apply_perm_moves_bits():
    geom = ArrayGeometry(3, 2)
    group = symmetry.build_group(geom)
    rng = np.random.default_rng(5)
    for mask in rng.integers(0, 1 << 6, size=12):
        mask = int(mask)
        for p in group.elements:
            moved = symmetry.apply_perm(p, mask)
            expected = 0
            for s in range(6):
                if (mask >> s) & 1:
                    expected |= 1 << p[s]
            assert moved == expected
            assert bin(moved).count("1") == bin(mask).count("1")


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
            for m in cls.members:
                p[basis.rank(m), i] = 1.0 / np.sqrt(cls.size)
        projected = p.T @ hop @ p
        assert np.allclose(oh.matrix, projected, atol=1e-12)
        assert np.allclose(oh.matrix, oh.matrix.T, atol=1e-12)
        assert oh.energy_unit == pytest.approx(2.0 * lam)
        rebuilt = oh.energy_unit * oh.hop_counts * np.sqrt(
            np.array([c_.size for c_ in oh.classes], float)[:, None]
            / np.array([c_.size for c_ in oh.classes], float)[None, :]
        )
        assert np.allclose(rebuilt, oh.matrix)


def test_orbit_hamiltonian_requires_equal_couplings():
    geom = ArrayGeometry(2, 2)
    c = SpinCouplings(lambda_a=-0.2, lambda_b=-0.3, omega_at=1.0)
    with pytest.raises(ValueError):
        symmetry.orbit_basis_hamiltonian(geom, c, 2)


def test_plaquette_ground_state_lives_in_symmetric_sector():
    geom = ArrayGeometry(2, 2)
    c = SpinCouplings(lambda_a=-0.4, lambda_b=-0.4, omega_at=1.0)
    spec, basis = spinmodel.sector_ground(geom, c, 2, k=3)
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
