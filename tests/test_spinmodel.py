"""Sector spin model against dense product-space references."""

import numpy as np
import pytest
import scipy.linalg

import cavityspin.basis
from cavityspin import canonical, jcmodel, linalg, observables, spinmodel, symmetry
from cavityspin.basis import SectorBasis, line_moves
from cavityspin.canonical import SymmetricSector
from cavityspin.geometry import ArrayGeometry
from cavityspin.params import EffectiveJCParams, SpinCouplings

from oracles import (
    dense_spin_full,
    dense_spin_sector,
    expand_block_vectors,
    pair_loop_correlations,
    sector_block,
    sector_masks,
    refuse,
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
    # a line with occ raised spins out of L has occ * (L - occ) mismatched
    # pairs, one move of the hop rule each
    geom = ArrayGeometry(4, 3)
    masks = np.random.default_rng(3).integers(0, 1 << 12, size=60)
    for kind, lines, length in (
        ("row", [geom.row_sites(r) for r in range(geom.ly)], geom.lx),
        ("col", [geom.col_sites(c) for c in range(geom.lx)], geom.ly),
    ):
        src, _ = line_moves(geom, masks, kind)
        for i, mask in enumerate(masks.tolist()):
            occ = [sum((mask >> s) & 1 for s in line) for line in lines]
            assert np.count_nonzero(src == i) == sum(o * (length - o) for o in occ)


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


def test_excitation_curve_solves_zero_coupling_on_the_attractive_lines(monkeypatch):
    # at lambda = 0 every sector energy is c_n on either line; the
    # attractive lines take the symmetric block, the repulsive ones do not
    solve = spinmodel.sector_ground
    seen = []

    def recording(geometry, couplings, n_exc, **kwargs):
        seen.append(couplings)
        return solve(geometry, couplings, n_exc, **kwargs)

    monkeypatch.setattr(spinmodel, "sector_ground", recording)
    rows = spinmodel.excitation_curve(ArrayGeometry(3, 2), 1.0, [0.0, -0.1])
    assert len(seen) == 7
    assert not any(c.lambda_a > 0.0 or c.lambda_b > 0.0 for c in seen)
    assert rows[0] == (0.0, 0, -3.0)


def test_excitation_curve_builds_each_orbit_level_once(monkeypatch):
    # 5x4: 15 routed sectors (n = 3..17) need levels 0..10 and their
    # complements 11..17, 18 levels, plus one classify per block
    codes = canonical.canonical_codes
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return codes(*args, **kwargs)

    canonical.symmetric_sector.cache_clear()
    monkeypatch.setattr(canonical, "canonical_codes", counting)
    spinmodel.excitation_curve(ArrayGeometry(5, 4), 1.0, [-0.05, -0.3])
    assert len(calls) == 18 + 15


def test_uniform_one_exc_correlations():
    # with equal negative couplings the one-excitation ground state is the
    # uniform superposition: every coherence is 1/N
    geom = ArrayGeometry(3, 3)
    c = SpinCouplings(lambda_a=-0.2, lambda_b=-0.2, omega_at=1.0)
    spec, basis = spinmodel.sector_ground(geom, c, 1)
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
        spec, basis = spinmodel.sector_ground(geom, c, n_exc)
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


def test_correlations_on_arrays_without_unshared_pairs():
    # a single row or column has no NNN pair, and n = 0 or N has no move:
    # those averages are exactly 0.0, not a 0/0
    c = SpinCouplings(lambda_a=-0.1, lambda_b=-0.07, omega_at=1.0)
    for lx, ly in [(1, 1), (1, 4), (4, 1)]:
        geom = ArrayGeometry(lx, ly)
        for n_exc in range(geom.n_sites + 1):
            spec, basis = spinmodel.sector_ground(geom, c, n_exc)
            res = spinmodel.correlation_ratio(spec, basis)
            assert res.sigma_nnn == 0.0
            if n_exc in (0, geom.n_sites):
                assert res.sigma_nn == 0.0 and not res.defined


def _kernel_cases():
    """(spectrum, basis) pairs for the pair-sum kernel: whole small arrays
    at an attractive and a frustrated pair, the Lanczos 3-fold 4x4 n=5
    level, routed 4x4 n=8, 1x12 n=6 (one class) and 7x2 n=5 sectors and JC
    sectors."""
    for lx, ly in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 2), (4, 3)]:
        geom = ArrayGeometry(lx, ly)
        for la, lb in [(-0.14, -0.063), (0.1, -0.3)]:
            c = SpinCouplings(lambda_a=la, lambda_b=lb, omega_at=1.0)
            for n_exc in range(geom.n_sites + 1):
                yield spinmodel.sector_ground(geom, c, n_exc)
    geom = ArrayGeometry(4, 4)
    spec, basis = spinmodel.sector_ground(
        geom, SpinCouplings(lambda_a=0.1, lambda_b=-0.3, omega_at=1.0), 5
    )
    assert spec.method == "lanczos" and spec.eigenvectors.shape[1] == 3
    yield spec, basis
    attractive = SpinCouplings(lambda_a=-0.12, lambda_b=-0.05, omega_at=1.0)
    for geom, n_exc, classes in [
        (geom, 8, None), (ArrayGeometry(1, 12), 6, 1), (ArrayGeometry(7, 2), 5, None)
    ]:
        spec, basis = spinmodel.sector_ground(geom, attractive, n_exc)
        assert spec.method == "symmetric-block"
        assert classes is None or len(basis.sizes) == classes
        yield spec, basis
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=4.0)
    for lx, ly in [(2, 2), (3, 2)]:
        for n_total in range(4):
            yield jcmodel.jc_sector_ground(ArrayGeometry(lx, ly), jc, n_total)


def test_pair_sums_match_the_per_pair_loop():
    for spec, basis in _kernel_cases():
        res = spinmodel.correlation_ratio(spec, basis)
        multiplet = spec.eigenvectors
        if isinstance(basis, SymmetricSector) and basis.modes is None:  # block sums vs the loop
            full = SectorBasis(basis.geometry, basis.n)
            multiplet, basis = expand_block_vectors(spec, basis, full.states), full
        elif isinstance(basis, SymmetricSector):  # a Jaynes-Cummings sector
            full = jcmodel.JCBasis(basis.geometry, basis.n)
            multiplet, basis = expand_block_vectors(spec, basis, *full.states()[1:]), full
        s_nn, s_nnn = pair_loop_correlations(multiplet, basis)
        assert res.multiplet_size == multiplet.shape[1]
        assert res.sigma_nn == pytest.approx(s_nn, rel=0, abs=1e-13)
        assert res.sigma_nnn == pytest.approx(s_nnn, rel=0, abs=1e-13)


def test_pair_sums_code_a_routed_sector_in_one_pass(monkeypatch):
    # full and routed sectors of both models take no hop move, and a routed
    # sector codes the raisings of all its spin levels in one query set
    attractive = SpinCouplings(lambda_a=-0.15, lambda_b=-0.07, omega_at=1.0)
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.5)
    cases = [
        (spinmodel.correlation_ratio, spinmodel.sector_ground(ArrayGeometry(3, 3), attractive, 4)),
        (spinmodel.correlation_ratio, spinmodel.sector_ground(ArrayGeometry(5, 4), attractive, 10)),
        (jcmodel.jc_correlation_ratio, jcmodel.jc_sector_ground(ArrayGeometry(3, 2), jc, 2)),
        (jcmodel.jc_correlation_ratio, jcmodel.jc_sector_ground(ArrayGeometry(3, 3), jc, 4)),
    ]
    assert [spec.method for _, (spec, _) in cases] == ["dense", "symmetric-block"] * 2
    canonical.symmetric_jc_sector(ArrayGeometry(3, 3), 3)  # the sector one excitation below

    def refuse(*args, **kwargs):
        raise AssertionError("the pair sums took hop moves")

    for module in (cavityspin.basis, observables, spinmodel, symmetry):
        if hasattr(module, "line_moves"):
            monkeypatch.setattr(module, "line_moves", refuse)
    codes, calls = canonical.canonical_codes, []

    def counting(*args, **kwargs):
        calls.append(1)
        return codes(*args, **kwargs)

    monkeypatch.setattr(canonical, "canonical_codes", counting)
    counts = []
    for ratio, (spec, basis) in cases:
        calls.clear()
        assert ratio(spec, basis).defined
        counts.append(len(calls))
    assert counts == [0, 1, 0, 1]


def test_sector_ground_energy_matches_dense():
    geom = ArrayGeometry(3, 3)
    c = SpinCouplings(lambda_a=-0.4, lambda_b=0.25, omega_at=1.3)
    for n_exc in (1, 4):
        block, _ = dense_spin_sector(geom, c, n_exc)
        e = spinmodel.sector_ground_energy(geom, c, n_exc)
        assert e == pytest.approx(float(np.linalg.eigvalsh(block)[0]), abs=1e-10)


def test_symmetric_block_route_matches_full_sector_ed():
    # every sector past the route floor, at three random attractive pairs
    # (one with lambda_a == lambda_b); the reference solves the full sector
    rng = np.random.default_rng(2017)
    pairs = [tuple(-rng.uniform(0.02, 0.3, size=2)) for _ in range(2)]
    pairs.append((pairs[0][0], pairs[0][0]))
    cases = 0
    for lx, ly in [(4, 3), (6, 2), (7, 2), (5, 3), (4, 4)]:
        geom = ArrayGeometry(lx, ly)
        for la, lb in pairs:
            c = SpinCouplings(lambda_a=float(la), lambda_b=float(lb), omega_at=1.0)
            for n_exc in range(geom.n_sites + 1):
                if basisdim(geom, n_exc) <= canonical.FLOOR:
                    continue
                spec, sector = spinmodel.sector_ground(geom, c, n_exc)
                assert spec.method == "symmetric-block" and spec.converged
                basis = SectorBasis(geom, n_exc)
                assert sector.dim == basis.dim
                h = spinmodel.build_sector_hamiltonian(geom, c, basis)
                assert linalg._perron_frobenius_simple(h.matrix)
                ref = linalg.ground_state(h)
                assert spec.ground_energy == pytest.approx(ref.ground_energy, rel=1e-12)
                assert spec.eigenvectors.shape[1] == 1
                # the expanded block vector is a normalized eigenvector of the sector
                v = expand_block_vectors(spec, sector, basis.states)[:, 0]
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                r = h.matvec(v) - spec.ground_energy * v
                assert np.linalg.norm(r) <= 1e-10 * max(1.0, abs(spec.ground_energy))
                mine = spinmodel.correlation_ratio(spec, sector)
                theirs = spinmodel.correlation_ratio(ref, basis)
                assert mine.multiplet_size == theirs.multiplet_size == 1
                assert abs(mine.sigma_nn - theirs.sigma_nn) <= 1e-12
                assert abs(mine.sigma_nnn - theirs.sigma_nnn) <= 1e-12
                cases += 1
    assert cases == 3 * (7 + 7 + 9 + 10 + 11)


@pytest.mark.parametrize("lx, ly, n_exc", [(9, 2, 3), (9, 2, 15), (17, 1, 4), (1, 17, 13)])
def test_symmetric_block_route_past_sixteen_sites(lx, ly, n_exc):
    # a single line is one class
    geom = ArrayGeometry(lx, ly)
    c = SpinCouplings(lambda_a=-0.11, lambda_b=-0.23, omega_at=0.9)
    spec, sector = spinmodel.sector_ground(geom, c, n_exc)
    assert spec.method == "symmetric-block"
    basis = SectorBasis(geom, n_exc)
    ref = linalg.ground_state(spinmodel.build_sector_hamiltonian(geom, c, basis))
    assert spec.ground_energy == pytest.approx(ref.ground_energy, rel=1e-12)
    mine = spinmodel.correlation_ratio(spec, sector)
    theirs = spinmodel.correlation_ratio(ref, basis)
    assert abs(mine.sigma_nn - theirs.sigma_nn) <= 1e-12
    assert abs(mine.sigma_nnn - theirs.sigma_nnn) <= 1e-12


def test_routed_sector_builds_no_table_labels_nothing_and_expands_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a routed spin sector reached the sector-sized path")

    for module, name in [
        (cavityspin.basis, "enumerate_masks"),
        (observables, "enumerate_masks"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    geom = ArrayGeometry(4, 4)
    c = SpinCouplings(lambda_a=-0.12, lambda_b=-0.05, omega_at=1.0)
    spec, sector = spinmodel.sector_ground(geom, c, 8)
    assert spec.method == "symmetric-block" and sector.dim == 12870
    assert spec.eigenvectors.shape == (len(sector.sizes), 1)
    assert spinmodel.correlation_ratio(spec, sector).defined


def test_symmetric_block_route_past_the_labelling_guard(monkeypatch):
    # the route holds its classes (390 candidates, 1334 block rows), so a
    # row budget below the 6435 states of the sector does not bound it
    canonical.symmetric_sector.cache_clear()
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 2000)
    geom = ArrayGeometry(5, 3)  # C(15, 7) = 6435
    c = SpinCouplings(lambda_a=-0.12, lambda_b=-0.05, omega_at=1.0)
    spec, sector = spinmodel.sector_ground(geom, c, 7)
    assert spec.method == "symmetric-block"
    assert sector.dim == 6435 and spec.eigenvectors.shape == (len(sector.sizes), 1)


@pytest.mark.parametrize("lx, ly", [(1, 5), (5, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_route_condition_implies_a_simple_ground_level(lx, ly):
    # the analytic condition must never hold where the built matrix fails
    # the Perron-Frobenius test (nonpositive off-diagonal, connected)
    geom = ArrayGeometry(lx, ly)
    values = (-0.3, -0.1, 0.0, 0.2)
    held = 0
    for la in values:
        for lb in values:
            c = SpinCouplings(lambda_a=la, lambda_b=lb, omega_at=0.8)
            for n_exc in range(geom.n_sites + 1):
                if not spinmodel._perron_frobenius_sector(geom, c, n_exc):
                    continue
                held += 1
                basis = SectorBasis(geom, n_exc)
                h = spinmodel.build_sector_hamiltonian(geom, c, basis)
                assert linalg._perron_frobenius_simple(h.matrix), (la, lb, n_exc)
    assert held == 4 * (geom.n_sites - 1)


def test_route_is_taken_only_for_one_attractive_pair_past_the_floor():
    geom = ArrayGeometry(4, 3)  # C(12, 2) = 66, C(12, 5) = 792
    attractive = SpinCouplings(lambda_a=-0.15, lambda_b=-0.07, omega_at=1.0)
    frustrated = SpinCouplings(lambda_a=0.1, lambda_b=-0.3, omega_at=1.0)
    spec, _ = spinmodel.sector_ground(geom, attractive, 5)
    assert spec.method == "symmetric-block"
    spec, _ = spinmodel.sector_ground(geom, attractive, 2)
    assert spec.method == "dense"  # at or below the floor
    for c in (frustrated, SpinCouplings(lambda_a=-0.1, lambda_b=0.0, omega_at=1.0)):
        spec, _ = spinmodel.sector_ground(geom, c, 5)
        assert spec.method == "lanczos"


@pytest.mark.parametrize(
    "lx, ly, n_exc, dim",
    [(5, 4, 2, 190), (3, 3, 4, 126), (5, 2, 4, 210), (4, 3, 3, 220)],
)
def test_route_floor_from_both_sides(monkeypatch, lx, ly, n_exc, dim):
    geom = ArrayGeometry(lx, ly)
    c = SpinCouplings(lambda_a=-0.15, lambda_b=-0.07, omega_at=1.0)
    assert basisdim(geom, n_exc) == dim
    assert 190 <= canonical.FLOOR < 210  # the measured floor
    shipped = "symmetric-block" if dim > canonical.FLOOR else "dense"
    assert spinmodel.sector_ground(geom, c, n_exc)[0].method == shipped
    # a sector at the floor stays whole; one state past it is routed
    for floor, method in [(dim, "dense"), (dim - 1, "symmetric-block")]:
        monkeypatch.setattr(canonical, "FLOOR", floor)
        assert spinmodel.sector_ground(geom, c, n_exc)[0].method == method


def test_full_sector_entries_are_refused_past_the_row_budget(monkeypatch):
    # 4x3 n=5, frustrated: C(12, 5) = 792 diagonal entries and 2 x 30 line
    # pairs x C(10, 4) = 12600 hops, counted before any entry is built
    geom = ArrayGeometry(4, 3)
    c = SpinCouplings(lambda_a=0.1, lambda_b=-0.3, omega_at=1.0)
    assert len(spinmodel.build_sector_hamiltonian(geom, c, SectorBasis(geom, 5)).rows) == 13392
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 13391)
    monkeypatch.setattr(spinmodel, "_sector_entries", refuse)
    with pytest.raises(ValueError, match="^sector matrix of 13392 rows exceeds the budget 13391$"):
        spinmodel.sector_ground(geom, c, 5)


def test_routed_spin_blocks_are_refused_past_the_row_budget(monkeypatch):
    # 5x3 n=7: 29 classes of at most 1 + 45 entries each, counted after growth
    geom = ArrayGeometry(5, 3)
    c = SpinCouplings(lambda_a=-0.12, lambda_b=-0.05, omega_at=1.0)
    canonical.symmetric_sector(geom, 7)
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 1333)
    monkeypatch.setattr(spinmodel, "_sector_entries", refuse)
    with pytest.raises(ValueError, match="^orbit block of 1334 rows exceeds the budget 1333$"):
        spinmodel.sector_ground(geom, c, 7)
