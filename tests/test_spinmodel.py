"""Sector spin model against dense product-space references."""

import numpy as np
import pytest
import scipy.linalg

from cavityspin import spinmodel
from cavityspin.basis import SectorBasis
from cavityspin.geometry import ArrayGeometry
from cavityspin.params import SpinCouplings

from oracles import (
    dense_spin_full,
    dense_spin_sector,
    sector_block,
    sector_masks,
    spin_correlation_reference,
)

GEOMS = [(2, 2), (3, 2), (2, 4), (1, 5), (3, 3)]


def test_sector_matrix_matches_dense_product_space():
    rng = np.random.default_rng(7)
    for lx, ly in GEOMS:
        geom = ArrayGeometry(lx, ly)
        n = geom.n_sites
        c = SpinCouplings(
            lambda_a=float(rng.uniform(-1, 1)),
            lambda_b=float(rng.uniform(-1, 1)),
            omega_at=float(rng.uniform(-2, 2)),
        )
        for shift in (True, False):
            full = dense_spin_full(geom, c, shift)
            for n_exc in range(n + 1):
                basis = SectorBasis(geom, n_exc)
                mine = spinmodel.build_sector_hamiltonian(
                    geom, c, basis, shift
                ).to_dense()
                masks = sector_masks(n, n_exc)
                ref = sector_block(full, masks)
                assert mine.shape == ref.shape
                assert np.allclose(mine, ref, atol=1e-13)


def test_diagonal_only_at_zero_coupling():
    geom = ArrayGeometry(3, 2)
    c = SpinCouplings(lambda_a=0.0, lambda_b=0.0, omega_at=0.9)
    for n_exc in (0, 2, 5):
        basis = SectorBasis(geom, n_exc)
        h = spinmodel.build_sector_hamiltonian(geom, c, basis).to_dense()
        expected = 0.45 * (2 * n_exc - 6)
        assert np.allclose(h, expected * np.eye(basis.dim))


def test_one_exc_closed_spectrum_matches_dense():
    rng = np.random.default_rng(11)
    for lx, ly in [(4, 3), (1, 5), (5, 1), (2, 2), (6, 2)]:
        geom = ArrayGeometry(lx, ly)
        c = SpinCouplings(
            lambda_a=float(rng.uniform(-1, 1)),
            lambda_b=float(rng.uniform(-1, 1)),
            omega_at=0.0,
        )
        closed = spinmodel.one_exc_closed_spectrum(geom, c)
        assert sum(m for _, m in closed) == geom.n_sites
        expanded = np.sort(np.repeat([e for e, _ in closed], [m for _, m in closed]))
        block, _ = dense_spin_sector(geom, c, 1, include_lambda_shift=False)
        assert np.allclose(expanded, np.sort(np.linalg.eigvalsh(block)), atol=1e-12)


def test_hop_count_equals_mismatched_line_pairs():
    geom = ArrayGeometry(3, 3)
    rng = np.random.default_rng(3)
    for mask in rng.integers(0, 1 << 9, size=40):
        mask = int(mask)
        expected = sum(
            1
            for s, t, _ in geom.line_pairs()
            if ((mask >> s) & 1) != ((mask >> t) & 1)
        )
        assert spinmodel.hop_count(geom, mask) == expected


def test_transition_couplings_square_array():
    # on an L x L array the 0 -> 1 crossing balances the diagonal step
    # against the hop gain 2*lambda*(2L - 2): -omega/(4L) with the coupling
    # shift in the splitting, -omega/(4(L-1)) without
    geom = ArrayGeometry(3, 3)
    pts = spinmodel.transition_couplings(
        geom, 1.0, lambda_min=-0.6, lambda_max=-1e-9, max_transitions=1
    )
    assert pts[0].n_from == 0 and pts[0].n_to == 1
    assert pts[0].lambda_c == pytest.approx(-1.0 / 12.0, abs=1e-9)
    pts_ns = spinmodel.transition_couplings(
        geom,
        1.0,
        lambda_min=-0.6,
        lambda_max=-1e-9,
        max_transitions=1,
        include_lambda_shift=False,
    )
    assert pts_ns[0].lambda_c == pytest.approx(-1.0 / 8.0, abs=1e-9)


def _dense_sector_minima(geom, lam, shift, sectors):
    c = SpinCouplings(lambda_a=lam, lambda_b=lam, omega_at=1.0)
    full = dense_spin_full(geom, c, shift)
    return {
        n: float(
            scipy.linalg.eigvalsh(
                sector_block(full, sector_masks(geom.n_sites, n)),
                subset_by_index=[0, 0],
            )[0]
        )
        for n in sectors
    }


@pytest.mark.parametrize(
    "lx, ly, shift, bracket",
    [
        (4, 3, True, (-2.0, -1e-9)),
        (4, 3, False, (1e-9, 2.0)),
        (5, 2, True, (-2.0, -1e-9)),
        (5, 2, False, (-2.0, -1e-9)),
        (5, 2, False, (1e-9, 2.0)),
    ],
)
def test_transition_couplings_every_crossing_matches_dense(lx, ly, shift, bracket):
    geom = ArrayGeometry(lx, ly)
    pts = spinmodel.transition_couplings(
        geom, 1.0, lambda_min=bracket[0], lambda_max=bracket[1],
        include_lambda_shift=shift,
    )
    # reported crossings: the first run of sectors whose dense gap
    # E_n - E_{n+1} changes sign between the bracket ends
    every = range(geom.n_sites + 1)
    lo, hi = (_dense_sector_minima(geom, lam, shift, every) for lam in bracket)
    expected = []
    for n in range(geom.n_sites):
        if (lo[n] - lo[n + 1]) * (hi[n] - hi[n + 1]) <= 0.0:
            expected.append(n)
        elif expected:
            break
    assert len(expected) > 1
    assert [(p.n_from, p.n_to) for p in pts] == [(n, n + 1) for n in expected]
    for p in pts:
        assert bracket[0] <= p.lambda_c <= bracket[1]
        n = p.n_from
        below, above = (
            _dense_sector_minima(geom, p.lambda_c * f, shift, (n, n + 1))
            for f in (1.0 - 1e-8, 1.0 + 1e-8)
        )
        assert (below[n] - below[n + 1]) * (above[n] - above[n + 1]) < 0.0


def test_transition_bracket_validation():
    geom = ArrayGeometry(2, 2)
    with pytest.raises(ValueError):
        spinmodel.transition_couplings(geom, 1.0, lambda_min=-0.1, lambda_max=0.1)
    with pytest.raises(ValueError):
        spinmodel.transition_couplings(geom, 1.0, lambda_min=-0.1, lambda_max=-0.2)


def test_excitation_curve_staircase():
    geom = ArrayGeometry(2, 2)
    rows = spinmodel.excitation_curve(geom, 1.0, [-0.05, -0.13, -0.5, -2.0])
    ns = [n for _, n, _ in rows]
    # crossings sit at -1/8, -0.1768, -0.4268; the shifted splitting keeps
    # the fully excited sector above the one-hole sector at any coupling
    assert ns == [0, 1, 3, 3]
    # each reported energy must be the true sector minimum at that coupling
    for lam, n, e in rows:
        c = SpinCouplings(lambda_a=lam, lambda_b=lam, omega_at=1.0)
        energies = [
            spinmodel.sector_ground_energy(geom, c, k) for k in range(5)
        ]
        assert e == pytest.approx(min(energies), rel=1e-12)
        assert n == int(np.argmin(energies))
    # first crossing sits at -omega/8: still normal just above it
    before = spinmodel.excitation_curve(geom, 1.0, [-0.12])
    assert before[0][1] == 0


def test_excitation_curve_all_ties_pick_smallest():
    geom = ArrayGeometry(2, 2)
    rows = spinmodel.excitation_curve(geom, 0.0, [0.0])
    assert rows[0][1] == 0


def test_uniform_one_exc_correlations():
    # with equal negative couplings the one-excitation ground state is the
    # uniform superposition: every coherence is 1/N
    geom = ArrayGeometry(3, 3)
    c = SpinCouplings(lambda_a=-0.2, lambda_b=-0.2, omega_at=1.0)
    spec, basis = spinmodel.sector_ground(geom, c, 1, k=3)
    res = spinmodel.correlation_ratio(spec, basis)
    assert res.defined
    assert res.sigma_nn == pytest.approx(1.0 / 9.0, rel=1e-10)
    assert res.sigma_nnn == pytest.approx(1.0 / 9.0, rel=1e-10)
    assert res.ratio == pytest.approx(1.0, rel=1e-10)
    assert res.multiplet_size == 1


def test_correlation_ratio_matches_dense_reference():
    geom = ArrayGeometry(3, 3)
    c = SpinCouplings(lambda_a=-0.15, lambda_b=-0.08, omega_at=0.7)
    for n_exc in (2, 3):
        spec, basis = spinmodel.sector_ground(geom, c, n_exc, k=min(12, basisdim(geom, n_exc)))
        res = spinmodel.correlation_ratio(spec, basis)
        assert not res.cluster_truncated
        _, s_nn, s_nnn, ratio, msize = spin_correlation_reference(geom, c, n_exc)
        assert res.multiplet_size == msize
        assert res.sigma_nn == pytest.approx(s_nn, rel=1e-10, abs=1e-12)
        assert res.sigma_nnn == pytest.approx(s_nnn, rel=1e-10, abs=1e-12)
        assert res.ratio == pytest.approx(ratio, rel=1e-10)


def basisdim(geom, n_exc):
    return SectorBasis(geom, n_exc).dim


def test_correlations_undefined_at_sector_edges():
    geom = ArrayGeometry(2, 2)
    c = SpinCouplings(lambda_a=-0.1, lambda_b=-0.1, omega_at=1.0)
    for n_exc in (0, 4):
        spec, basis = spinmodel.sector_ground(geom, c, n_exc)
        res = spinmodel.correlation_ratio(spec, basis)
        assert not res.defined
        assert res.ratio is None
        assert res.sigma_nn == 0.0 and res.sigma_nnn == 0.0
        assert res.multiplet_size == 1 and not res.cluster_truncated


def test_site_occupations_sum_to_sector_count():
    geom = ArrayGeometry(3, 2)
    c = SpinCouplings(lambda_a=-0.3, lambda_b=0.12, omega_at=0.5)
    spec, basis = spinmodel.sector_ground(geom, c, 2, k=4)
    occ = spinmodel.site_occupations(spec.ground_multiplet(), basis)
    assert occ.sum() == pytest.approx(2.0, abs=1e-12)
    sz = spinmodel.sigma_z_expectations(spec.ground_multiplet(), basis)
    assert sz.sum() == pytest.approx(2.0 * 2 - 6, abs=1e-12)


def test_sector_ground_energy_matches_dense():
    geom = ArrayGeometry(3, 3)
    c = SpinCouplings(lambda_a=-0.4, lambda_b=0.25, omega_at=1.3)
    for n_exc in (1, 4):
        block, _ = dense_spin_sector(geom, c, n_exc)
        e = spinmodel.sector_ground_energy(geom, c, n_exc)
        assert e == pytest.approx(float(np.linalg.eigvalsh(block)[0]), abs=1e-10)
