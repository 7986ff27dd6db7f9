"""Sector diagonalization of the spin-photon array model."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import cavityspin.basis
from cavityspin import canonical, jcmodel, linalg, onedim, spinmodel
from cavityspin.geometry import ArrayGeometry
from cavityspin.observables import block_segments
from cavityspin.params import EffectiveJCParams, RegimeError, SpinCouplings

from oracles import (
    brute_group,
    brute_jc_orbits,
    dense_jc_sector,
    expand_block_vectors,
    jc_correlation_reference,
    refuse,
    symmetry_defect,
)


def brute_compositions(total, parts, cap):
    return [
        c
        for c in itertools.product(range(cap + 1), repeat=parts)
        if sum(c) == total
    ]


def test_bounded_compositions_complete_and_sorted():
    arr = jcmodel.bounded_compositions(3, 3, 2)
    assert arr.shape == (len(brute_compositions(3, 3, 2)), 3)
    assert sorted(arr.tolist()) == arr.tolist()
    assert sorted(map(tuple, arr.tolist())) == brute_compositions(3, 3, 2)
    assert all(v.sum() == 3 and v.max() <= 2 for v in arr)


def test_basis_dimension_and_roundtrip():
    geom = ArrayGeometry(2, 2)
    basis = jcmodel.JCBasis(geom, 2, 2)
    # spins 2 + photons 0, spins 1 + photons 1, spins 0 + photons 2
    assert basis.dim == 6 * 1 + 4 * 4 + 1 * 10
    assert not basis.truncated
    offset = 0
    for blk in basis.blocks:
        assert blk.offset == offset
        offset += blk.size
        assert all(int(m).bit_count() == blk.k for m in blk.masks)
        assert np.all(blk.k + blk.photons.configs.sum(axis=1) == 2)
        ranks = blk.photons.rank_keys(blk.photons.keys)
        assert np.array_equal(ranks, np.arange(blk.photons.count))
    assert offset == basis.dim
    # one photon in the first mode is no configuration of the k=2 block
    top = basis.blocks[0]
    assert top.k == 2
    assert top.photons.rank_keys(top.photons.weights[:1])[0] == -1


def test_photon_keys_past_int64_are_refused():
    # base-3 keys of 40 modes: the last configuration at total 2 is
    # 2 * 3**39 < 2**63 - 1, at total 3 it is 2 * 3**39 + 3**38, past it
    fits = jcmodel.PhotonBlock.build(2, 40, 2)
    assert int(fits.keys[-1]) == 2 * 3**39
    assert np.all(np.diff(fits.keys) > 0)
    with pytest.raises(ValueError, match="int64"):
        jcmodel.PhotonBlock.build(3, 40, 2)
    # the largest key weight alone: 64 modes at cap 1 weigh 2**63 in mode 0
    with pytest.raises(ValueError, match="int64"):
        jcmodel.PhotonBlock.build(0, 64, 1)
    with pytest.raises(ValueError, match="int64"):
        jcmodel.JCBasis(ArrayGeometry(39, 1), 3, 2)
    assert jcmodel.JCBasis(ArrayGeometry(39, 1), 2).dim == 741 + 39 * 40 + 820


def test_basis_guards():
    geom = ArrayGeometry(2, 2)
    with pytest.raises(ValueError):
        jcmodel.JCBasis(geom, -1)
    assert jcmodel.JCBasis(geom, 3, 1).truncated
    tiny = ArrayGeometry(1, 1)
    with pytest.raises(ValueError):
        jcmodel.JCBasis(tiny, 3, 0)  # one spin, capped empty modes


def test_sector_matrix_matches_dense_product_space():
    cases = [
        (ArrayGeometry(2, 2), EffectiveJCParams(omega_at=0.9, g=0.3, delta_a=2.0, delta_b=1.5), 2, 2),
        (
            ArrayGeometry(3, 1),
            EffectiveJCParams(
                omega_at=0.7, g=0.45, delta_a=1.8, delta_b=(1.2, 1.5, 2.1)
            ),
            2,
            2,
        ),
    ]
    for geom, jc, n_total, cap in cases:
        basis = jcmodel.JCBasis(geom, n_total, cap)
        h = jcmodel.build_jc_hamiltonian(geom, jc, basis)
        assert symmetry_defect(h) == 0.0
        mine = np.sort(np.linalg.eigvalsh(h.to_dense()))
        block, idx = dense_jc_sector(geom, jc, n_total, cap)
        assert basis.dim == len(idx)
        ref = np.sort(np.linalg.eigvalsh(block))
        assert np.allclose(mine, ref, atol=1e-11)


def test_mode_detunings_layout():
    geom = ArrayGeometry(3, 2)
    jc = EffectiveJCParams(
        omega_at=1.0, g=0.1, delta_a=(2.0, 2.5), delta_b=(1.1, 1.2, 1.3)
    )
    d = jcmodel.mode_detunings(geom, jc)
    assert np.allclose(d, [2.0, 2.5, 1.1, 1.2, 1.3])
    scalar = EffectiveJCParams(omega_at=1.0, g=0.1, delta_a=2.0, delta_b=1.5)
    assert np.allclose(jcmodel.mode_detunings(geom, scalar), [2.0, 2.0, 1.5, 1.5, 1.5])
    with pytest.raises(ValueError):
        jcmodel.mode_detunings(
            geom, EffectiveJCParams(omega_at=1.0, g=0.1, delta_a=(2.0,), delta_b=1.5)
        )


def test_one_excitation_crossing_numeric():
    geom = ArrayGeometry(2, 2)
    omega, delta = 1.0, 5.0
    closed = jcmodel.one_excitation_crossing_g(geom, omega, delta)
    assert closed == pytest.approx(math.sqrt(omega * delta / 4.0), rel=1e-14)
    e_vac = -omega * geom.n_sites / 2.0

    def gap(g):
        jc = EffectiveJCParams(omega_at=omega, g=g, delta_a=delta, delta_b=delta)
        spec, _ = jcmodel.jc_sector_ground(geom, jc, 1)
        return spec.ground_energy - e_vac

    lo, hi = 0.5 * closed, 1.5 * closed
    assert gap(lo) > 0.0 > gap(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert closed == pytest.approx(0.5 * (lo + hi), rel=1e-9)
    with pytest.raises(RegimeError):
        jcmodel.one_excitation_crossing_g(geom, 1.0, -2.0)


def test_superradiant_critical_g_matches_first_crossing():
    geom = ArrayGeometry(2, 2)
    omega, delta = 1.0, 10.0
    closed = jcmodel.one_excitation_crossing_g(geom, omega, delta)
    g_star = jcmodel.superradiant_critical_g(
        geom, omega, delta, delta, g_lo=0.5 * closed, g_hi=1.5 * closed
    )
    assert g_star == pytest.approx(closed, rel=1e-6)
    with pytest.raises(ValueError):
        jcmodel.superradiant_critical_g(
            geom, omega, delta, delta, g_lo=1.2 * g_star, g_hi=2.0 * g_star
        )
    with pytest.raises(ValueError):
        jcmodel.superradiant_critical_g(
            geom, omega, delta, delta, g_lo=0.3 * g_star, g_hi=0.8 * g_star
        )


@pytest.mark.parametrize(
    "geom, delta_a, delta_b, sectors, n_max, cap",
    [
        (ArrayGeometry(2, 2), 5.0, 9.0, 2, None, 2),
        (ArrayGeometry(2, 2), 12.0, 4.0, 3, 1, 1),
        (ArrayGeometry(3, 1), 6.0, (4.0, 7.0, 9.0), 2, None, 2),
    ],
)
def test_superradiant_critical_g_brackets_dense_gap_sign_change(
    geom, delta_a, delta_b, sectors, n_max, cap
):
    # unequal detunings and a per-mode cutoff below the sector total: the
    # dense gap min_n E0(n) - E_vac must change sign across the returned g
    omega = 1.0
    closed = jcmodel.one_excitation_crossing_g(geom, omega, 4.0)
    g_c = jcmodel.superradiant_critical_g(
        geom, omega, delta_a, delta_b, g_lo=0.2 * closed, g_hi=3.0 * closed,
        sectors=sectors, n_max=n_max,
    )
    e_vac = -omega * geom.n_sites / 2.0

    def dense_gap(g):
        jc = EffectiveJCParams(omega_at=omega, g=g, delta_a=delta_a, delta_b=delta_b)
        return min(
            float(np.linalg.eigvalsh(dense_jc_sector(geom, jc, n, cap)[0])[0])
            for n in range(1, sectors + 1)
        ) - e_vac

    assert dense_gap(g_c * (1.0 - 1e-8)) > 0.0 > dense_gap(g_c * (1.0 + 1e-8))


def test_ground_state_scan_dispersive():
    geom = ArrayGeometry(2, 2)
    jc = EffectiveJCParams(omega_at=1.0, g=0.1, delta_a=30.0, delta_b=30.0)
    res = jcmodel.jc_ground_state(geom, jc)
    assert res.n_total == 0
    assert res.energy == pytest.approx(-2.0)
    assert [n for n, _, _ in res.scan] == [0, 1, 2, 3, 4]
    n, dim, energy = res.scan[0]
    assert energy == res.energy
    assert dim == res.basis.dim == 1
    assert res.basis.n_total == 0


def test_ground_state_scan_flags_unbounded_photons():
    geom = ArrayGeometry(2, 2)
    jc = EffectiveJCParams(omega_at=1.0, g=0.1, delta_a=-0.5, delta_b=-0.5)
    with pytest.raises(RegimeError):
        jcmodel.jc_ground_state(geom, jc, span_cap=8)


def test_observables_conserve_total_excitation():
    # the observable kernel's block segments carry k raised spins and the
    # remaining photons of every state, at its place in the vector
    geom = ArrayGeometry(2, 2)
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=6.0)
    for n_total in (1, 2):
        spec, basis = jcmodel.jc_sector_ground(geom, jc, n_total)
        multiplet = spec.eigenvectors
        total = 0.0
        occ = np.zeros(geom.n_sites)
        for blk, seg in block_segments(multiplet, basis):
            w_mask = (seg**2).sum(axis=(1, 2)) / multiplet.shape[1]
            w_phot = (seg**2).sum(axis=(0, 2)) / multiplet.shape[1]
            total += blk.k * w_mask.sum() + blk.photons.configs.sum(axis=1) @ w_phot
            for s in range(geom.n_sites):
                occ[s] += w_mask[(blk.masks >> s) & 1 == 1].sum()
        assert total == pytest.approx(n_total, abs=1e-12)
        # uniform array: every site equivalent
        assert np.allclose(occ, occ[0], atol=1e-9)


def test_jc_correlation_ratio_matches_dense_reference():
    geom = ArrayGeometry(2, 2)
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=6.0)
    n_total, cap = 2, 2
    spec, basis = jcmodel.jc_sector_ground(geom, jc, n_total, n_max=cap)
    res = jcmodel.jc_correlation_ratio(spec, basis)
    assert not res.cluster_truncated
    s_nn, s_nnn, ratio = jc_correlation_reference(geom, jc, n_total, cap)
    assert res.sigma_nn == pytest.approx(s_nn, rel=1e-10, abs=1e-12)
    assert res.sigma_nnn == pytest.approx(s_nnn, rel=1e-10, abs=1e-12)
    if ratio is None:
        assert res.ratio is None
    else:
        assert res.ratio == pytest.approx(ratio, rel=1e-10)


def test_dispersive_one_exc_energy_estimate():
    # weak coupling far off resonance: lowest one-excitation level sits at
    # -omega(N-2)/2 shifted down by g^2 (Lx+Ly)/(delta-omega)
    geom = ArrayGeometry(2, 2)
    omega, delta, g = 1.0, 40.0, 0.5
    jc = EffectiveJCParams(omega_at=omega, g=g, delta_a=delta, delta_b=delta)
    spec, _ = jcmodel.jc_sector_ground(geom, jc, 1)
    estimate = -1.0 - g * g * 4.0 / (delta - omega)
    assert spec.ground_energy == pytest.approx(estimate, rel=2e-3)


def test_collective_blocks_match_closed_levels():
    n_spins, n_max = 3, 3
    delta, omega, lam = 1.7, 0.9, -0.21
    h, mvals, nvals = jcmodel.collective_mode_hamiltonian(
        n_spins, delta, omega, lam, n_max
    )
    assert np.allclose(h, h.T)
    for m in np.unique(mvals):
        for n in range(n_max + 1):
            sel = np.nonzero((mvals == m) & (nvals == n))[0]
            evals = np.sort(np.linalg.eigvalsh(h[np.ix_(sel, sel)]))
            closed = onedim.sector_level_list(n_spins, float(m), n, delta, omega, lam)
            assert np.allclose(evals, closed, atol=1e-10)


def test_collective_dense_guard():
    with pytest.raises(ValueError):
        jcmodel.collective_mode_hamiltonian(14, 1.0, 1.0, -0.1, 15)


def test_jc_matches_spin_model_in_deep_dispersive_regime():
    # eliminate the photons by hand; absolute energies carry different
    # vacuum bookkeeping, so compare gaps above the zero-excitation sector
    geom = ArrayGeometry(2, 2)
    omega, delta, g = 1.0, 80.0, 0.4
    lam = -g * g / (2.0 * (delta - omega))
    jc = EffectiveJCParams(omega_at=omega, g=g, delta_a=delta, delta_b=delta)
    c = SpinCouplings(lambda_a=lam, lambda_b=lam, omega_at=omega)
    e0_jc = jcmodel.jc_sector_ground(geom, jc, 0)[0].ground_energy
    e0_spin = spinmodel.sector_ground_energy(geom, c, 0)
    for n_exc in (1, 2):
        gap_jc = jcmodel.jc_sector_ground(geom, jc, n_exc)[0].ground_energy - e0_jc
        gap_spin = spinmodel.sector_ground_energy(geom, c, n_exc) - e0_spin
        assert gap_jc == pytest.approx(gap_spin, abs=5e-4 * n_exc)


def _jc_route_sectors():
    """Every sector with 32 < dim <= 6100 of the four smallest arrays."""
    for lx, ly in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        geom = ArrayGeometry(lx, ly)
        for n_total in range(1, 8):
            dim = jcmodel.JCBasis(geom, n_total).dim
            if 32 < dim <= 6100:
                yield geom, n_total


def test_symmetric_block_route_matches_full_sector_ed(monkeypatch):
    # the floor lowered to 32 routes every sector past it; the reference
    # solves the full sector matrix, dense up to dim 700
    monkeypatch.setattr(canonical, "FLOOR", 32)
    jc = EffectiveJCParams(omega_at=1.0, g=0.6, delta_a=1.7, delta_b=1.2)
    cases = 0
    for geom, n_total in _jc_route_sectors():
        spec, sector = jcmodel.jc_sector_ground(geom, jc, n_total)
        assert spec.method == "symmetric-block" and spec.converged
        basis = jcmodel.JCBasis(geom, n_total)
        assert sector.dim == basis.dim
        h = jcmodel.build_jc_hamiltonian(geom, jc, basis)
        ref = linalg.ground_state(h, method="dense" if basis.dim <= 700 else "lanczos")
        e = ref.ground_energy
        assert abs(spec.ground_energy - e) <= 1e-12 * abs(e), (geom, n_total)
        # the expanded class vector is a normalized eigenvector of the sector
        _, masks, modes = basis.states()
        v = expand_block_vectors(spec, sector, masks, modes)[:, 0]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(h.matvec(v) - e * v) <= 1e-10 * max(1.0, abs(e))
        mine = jcmodel.jc_correlation_ratio(spec, sector)  # on the class vector
        theirs = jcmodel.jc_correlation_ratio(ref, basis)
        assert mine.multiplet_size == theirs.multiplet_size == 1
        assert abs(mine.sigma_nn - theirs.sigma_nn) <= 1e-12
        assert abs(mine.sigma_nnn - theirs.sigma_nnn) <= 1e-12
        cases += 1
    assert cases == 5 + 6 + 4 + 3


def test_symmetric_block_route_on_an_array_whose_group_order_passes_int64():
    # 25! > 2**63 - 1, and the 7x6 n_total=2 codes take 42 + 13 * 2 = 68
    # bits, past one int64 word; a delta_a tuple keeps the sector whole
    jc = EffectiveJCParams(omega_at=1.0, g=0.3, delta_a=5.0, delta_b=5.0)
    for (lx, ly), dim in [((25, 1), 1301), ((7, 6), 1498)]:  # 300 + 650 + 351
        geom = ArrayGeometry(lx, ly)
        spec, basis = jcmodel.jc_sector_ground(geom, jc, 2)
        per_line = dataclasses.replace(jc, delta_a=(5.0,) * ly)
        full, _ = jcmodel.jc_sector_ground(geom, per_line, 2)
        assert basis.dim == dim
        assert (spec.method, full.method) == ("symmetric-block", "lanczos")
        error = abs(spec.ground_energy - full.ground_energy)
        assert error <= 1e-12 * abs(full.ground_energy)


@pytest.mark.parametrize("lx, ly, n_total", [(3, 2, 3), (2, 3, 3), (3, 3, 2), (2, 2, 4)])
def test_jc_classes_are_the_brute_force_orbits(lx, ly, n_total):
    # the classes grown from the spin levels, every basis state classified
    # by its code
    geom = ArrayGeometry(lx, ly)
    basis = jcmodel.JCBasis(geom, n_total)
    _, masks, modes = basis.states()
    states = list(zip(masks.tolist(), map(tuple, modes.tolist())))
    sector = canonical.symmetric_jc_sector(geom, n_total)
    classes = {}
    for state, i in enumerate(sector.classify(masks, modes).tolist()):
        classes.setdefault(i, []).append(state)
    mine = sorted(tuple(members) for members in classes.values())
    assert mine == brute_jc_orbits(brute_group(geom, False), geom, states)
    index = np.arange(len(sector.sizes))
    assert np.array_equal(sector.classify(sector.representatives, sector.modes), index)
    assert [len(classes[i]) for i in index] == sector.sizes.tolist()
    assert sector.dim == basis.dim


def test_symmetric_block_route_only_for_one_symmetric_untruncated_pair(monkeypatch):
    geom = ArrayGeometry(3, 3)  # n_total=4: dim 2016, past the floor
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.5)
    spec, _ = jcmodel.jc_sector_ground(geom, jc, 4)
    assert spec.method == "symmetric-block"
    per_line = EffectiveJCParams(
        omega_at=1.0, g=0.4, delta_a=(6.0, 6.2, 5.8), delta_b=5.5
    )
    off_route = [
        (per_line, {}),  # per-line detunings break the symmetry
        (jc, {"n_max": 3}),  # a truncated sector (dim 2010)
    ]
    for params, kwargs in off_route:
        spec, basis = jcmodel.jc_sector_ground(geom, params, 4, **kwargs)
        assert basis.dim > linalg.DENSE_CUTOFF
        assert spec.method == "lanczos", kwargs
    spec, _ = jcmodel.jc_sector_ground(geom, jc, 2)  # dim 111: below the floor
    assert spec.method == "dense"
    # no coupling leaves the sector disconnected, with a 126-fold ground
    # level: it goes to the full-sector solver, stubbed here for speed
    full = []

    def full_sector(h, seed):
        full.append(h.dim)
        return linalg.SpectrumResult(np.zeros(1), np.zeros((h.dim, 1)), np.zeros(1))

    monkeypatch.setattr(jcmodel, "ground_state", full_sector)
    uncoupled = dataclasses.replace(jc, g=0.0)
    jcmodel.jc_sector_ground(geom, uncoupled, 4)
    assert full == [2016]


@pytest.mark.parametrize(
    "lx, ly, n_total, dim", [(2, 2, 4, 192), (3, 3, 2, 111), (3, 2, 3, 220), (2, 2, 5, 360)]
)
def test_route_floor_from_both_sides(monkeypatch, lx, ly, n_total, dim):
    geom = ArrayGeometry(lx, ly)
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.5)
    spec, basis = jcmodel.jc_sector_ground(geom, jc, n_total)
    assert basis.dim == dim
    assert 192 <= canonical.FLOOR < 220  # the measured floor
    assert spec.method == ("symmetric-block" if dim > canonical.FLOOR else "dense")
    # a sector at the floor stays whole; one state past it is routed
    for floor, method in [(dim, "dense"), (dim - 1, "symmetric-block")]:
        monkeypatch.setattr(canonical, "FLOOR", floor)
        assert jcmodel.jc_sector_ground(geom, jc, n_total)[0].method == method


def _pencil_at_floor(monkeypatch, floor, geom, unit, n_total, n_max=None):
    monkeypatch.setattr(canonical, "FLOOR", floor)
    return jcmodel._pencil_ground(geom, unit, n_total, n_max, 0)


@pytest.mark.parametrize("lx, ly", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("delta", [1.5, 20.0])
def test_critical_coupling_pencil_on_the_orbit_block_matches_the_full_pencil(
    monkeypatch, lx, ly, delta
):
    # the floor lowered to 0 routes every pencil; raised past every sector,
    # none: the lowest eigenvalue mu, and g_c = -1 / min mu, agree
    geom = ArrayGeometry(lx, ly)
    unit = EffectiveJCParams(omega_at=1.0, g=1.0, delta_a=delta, delta_b=0.8 * delta)
    for n_total in (1, 2, 3):
        block = _pencil_at_floor(monkeypatch, 0, geom, unit, n_total)
        full = _pencil_at_floor(monkeypatch, 10**9, geom, unit, n_total)
        assert (block.method, full.method) == ("symmetric-block", "dense")
        mu = full.ground_energy
        assert mu < 0.0
        assert abs(block.ground_energy - mu) <= 1e-12 * abs(mu), n_total
    g_c = {}
    for floor in (0, 10**9):
        monkeypatch.setattr(canonical, "FLOOR", floor)
        g_c[floor] = jcmodel.superradiant_critical_g(
            geom, 1.0, delta, 0.8 * delta, g_lo=0.0, g_hi=math.inf
        )
    assert abs(g_c[0] - g_c[10**9]) <= 1e-12 * g_c[10**9]


def test_critical_coupling_pencil_stays_whole_off_the_route(monkeypatch):
    geom = ArrayGeometry(3, 2)
    unit = EffectiveJCParams(omega_at=1.0, g=1.0, delta_a=6.0, delta_b=5.5)
    per_line = dataclasses.replace(unit, delta_a=(6.0, 6.4))
    assert _pencil_at_floor(monkeypatch, 0, geom, unit, 2).method == "symmetric-block"
    assert _pencil_at_floor(monkeypatch, 0, geom, per_line, 2).method == "dense"
    assert _pencil_at_floor(monkeypatch, 0, geom, unit, 2, n_max=1).method == "dense"


def test_full_jc_sectors_are_refused_past_the_row_budget(monkeypatch):
    # 1 + 2 x 4 entries for each of the 84 states of 2x2 n_total=3 at cap 2,
    # counted in closed form before any photon block or mask table is built
    geom = ArrayGeometry(2, 2)
    for n_total, cap in itertools.product(range(7), range(8)):
        dim = jcmodel._sector_dim(geom, n_total, cap)
        if dim:  # JCBasis refuses an empty sector
            assert jcmodel.JCBasis(geom, n_total, cap).dim == dim
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 755)
    monkeypatch.setattr(jcmodel.PhotonBlock, "build", refuse)
    monkeypatch.setattr(jcmodel, "enumerate_masks", refuse)
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.5)
    with pytest.raises(ValueError, match="^sector matrix of 756 rows exceeds the budget 755$"):
        jcmodel.jc_sector_ground(geom, jc, 3, n_max=2)


def test_routed_jc_blocks_are_refused_past_the_row_budget(monkeypatch):
    # 3x3 n_total=4: 114 classes of at most 1 + 2 x 9 entries, counted after growth
    geom = ArrayGeometry(3, 3)
    canonical.symmetric_jc_sector(geom, 4)
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 2165)
    monkeypatch.setattr(jcmodel, "_jc_entries", refuse)
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.5)
    with pytest.raises(ValueError, match="^orbit block of 2166 rows exceeds the budget 2165$"):
        jcmodel.jc_sector_ground(geom, jc, 4)


def test_ground_state_scan_refuses_an_unbounded_photon_branch_before_any_solve(monkeypatch):
    geom = ArrayGeometry(2, 2)
    monkeypatch.setattr(jcmodel, "jc_sector_ground", refuse)
    for delta_a in (-5.0, 0.0, (1.0, -0.1)):
        jc = EffectiveJCParams(omega_at=1.0, g=0.3, delta_a=delta_a, delta_b=5.0)
        with pytest.raises(RegimeError, match="unbounded photon growth"):
            jcmodel.jc_ground_state(geom, jc)
    monkeypatch.undo()
    # at g = 0 a mode at zero detuning only ties, so the scan ends
    free = EffectiveJCParams(omega_at=1.0, g=0.0, delta_a=0.0, delta_b=5.0)
    assert jcmodel.jc_ground_state(geom, free).n_total == 0
