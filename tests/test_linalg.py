"""Sparse symmetric eigensolver: dense and iterative paths must agree."""

from math import comb

import numpy as np
import pytest

from cavityspin.basis import SectorBasis
from cavityspin.geometry import ArrayGeometry
from cavityspin.jcmodel import jc_sector_ground
from cavityspin.linalg import (
    CLOSING_ROUNDS,
    DENSE_CUTOFF,
    _perron_frobenius_simple,
    ground_state,
    label_degeneracies,
    operator_from_entries,
)
from cavityspin.params import EffectiveJCParams, SpinCouplings
from cavityspin.spinmodel import build_sector_hamiltonian, sector_ground
from oracles import symmetry_defect


def _scaled_identity(dim, scale=1.0):
    d = np.arange(dim)
    return operator_from_entries(dim, d, d, np.full(dim, scale))


def _random_operator(rng, dim, density=0.05, diag_scale=1.0):
    n_off = max(1, int(density * dim * dim / 2))
    rows = rng.integers(0, dim, size=n_off)
    cols = rng.integers(0, dim, size=n_off)
    vals = rng.normal(size=n_off)
    keep = rows != cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    d = np.arange(dim)
    dvals = diag_scale * rng.normal(size=dim)
    all_rows = np.concatenate([rows, cols, d])
    all_cols = np.concatenate([cols, rows, d])
    all_vals = np.concatenate([vals, vals, dvals])
    return operator_from_entries(dim, all_rows, all_cols, all_vals)


def test_matvec_matches_dense():
    rng = np.random.default_rng(0)
    op = _random_operator(rng, 40)
    h = op.to_dense()
    assert np.max(np.abs(h - h.T)) == 0.0
    v = rng.normal(size=40)
    assert np.allclose(op.matvec(v), h @ v, atol=1e-13)
    assert symmetry_defect(op) == 0.0


def test_dense_and_lanczos_agree_on_random_spectra():
    rng = np.random.default_rng(2)
    for trial in range(5):
        dim = int(rng.integers(60, 140))
        op = _random_operator(rng, dim, density=0.08)
        dense = ground_state(op, method="dense")
        lanc = ground_state(op, method="lanczos", seed=trial)
        # a random spectrum has a simple ground level: one pair, equal up to sign
        assert len(dense.eigenvalues) == len(lanc.eigenvalues) == 1
        assert np.allclose(dense.eigenvalues, lanc.eigenvalues, atol=1e-9)
        overlap = abs(float(dense.eigenvectors[:, 0] @ lanc.eigenvectors[:, 0]))
        assert overlap > 1 - 1e-7


def test_lanczos_resolves_exact_degeneracies():
    # known spectrum with a 3-fold ground level, hidden by a rotation
    rng = np.random.default_rng(7)
    dim = 90
    evals = np.concatenate([[-2.0, -2.0, -2.0], rng.uniform(-1.0, 3.0, size=dim - 3)])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    h = (q * evals) @ q.T
    h = 0.5 * (h + h.T)
    r, c = np.nonzero(np.ones((dim, dim)))
    op = operator_from_entries(dim, r, c, h[r, c])
    res = ground_state(op, method="lanczos", seed=0)
    assert np.allclose(res.eigenvalues, -2.0, atol=1e-9)
    assert res.eigenvectors.shape[1] == 3
    # the 3 vectors span the planted eigenspace
    basis = q[:, :3]
    proj = basis @ (basis.T @ res.eigenvectors)
    assert np.max(np.abs(proj - res.eigenvectors)) < 1e-7


def test_lanczos_returns_the_whole_ground_cluster():
    # fully degenerate: every one of the 40 copies comes back
    res = ground_state(_scaled_identity(40, scale=-1.0), method="lanczos")
    assert res.method == "lanczos" and res.converged
    assert res.eigenvectors.shape[1] == 40
    assert np.allclose(res.eigenvalues, -1.0)
    # a 6-fold diagonal ground level among 60 states, and no pair above it
    d = np.arange(60)
    levels = np.concatenate([np.full(6, -1.0), np.linspace(0.0, 1.0, 54)])
    res = ground_state(operator_from_entries(60, d, d, levels), method="lanczos")
    assert len(res.eigenvalues) == 6 and res.eigenvectors.shape[1] == 6
    assert np.allclose(res.eigenvalues, -1.0)


def test_lanczos_counts_the_copies_of_disconnected_blocks():
    # two identical chains with non-positive hops: each block alone has a
    # simple ground level (Perron-Frobenius), the whole operator a 2-fold one
    n = 30
    i = np.arange(n - 1)
    rows = np.concatenate([i, i + 1, i + n, i + n + 1])
    cols = np.concatenate([i + 1, i, i + n + 1, i + n])
    vals = np.full(len(rows), -1.0)
    op = operator_from_entries(2 * n, rows, cols, vals)
    res = ground_state(op, method="lanczos")
    dense = ground_state(op, method="dense")
    assert res.eigenvectors.shape[1] == dense.eigenvectors.shape[1] == 2
    assert np.allclose(res.eigenvalues, dense.eigenvalues, atol=1e-12)


def test_dense_path_returns_the_whole_ground_cluster():
    res = ground_state(_scaled_identity(10, scale=-1.0), method="dense")
    assert res.eigenvectors.shape[1] == 10
    assert np.allclose(res.eigenvalues, -1.0)
    # a split cluster stops at the first gap
    d = np.arange(6)
    op = operator_from_entries(6, d, d, [-2.0, -2.0, -2.0 + 1e-12, -1.0, 0.0, 1.0])
    assert ground_state(op, method="dense").eigenvectors.shape[1] == 3


def test_label_degeneracies_clusters():
    labels = label_degeneracies(np.array([-1.0, -1.0, -0.5, 0.0, 0.0, 0.0]))
    assert list(labels) == [0, 0, 1, 2, 2, 2]
    assert len(label_degeneracies(np.empty(0))) == 0

    def loop_labels(e, rtol=1e-8):
        out = [0]
        for i in range(1, len(e)):
            scale = max(1.0, abs(e[i]), abs(e[i - 1]))
            out.append(out[-1] + (0 if e[i] - e[i - 1] <= rtol * scale else 1))
        return out

    rng = np.random.default_rng(5)
    for _ in range(20):
        levels = rng.normal(scale=10.0 ** rng.integers(-2, 4), size=8)
        e = np.repeat(levels, rng.integers(1, 4, size=8))
        e = np.sort(e * (1.0 + rng.choice([0.0, 1e-10, 1e-9, 2e-8], size=len(e))))
        assert list(label_degeneracies(e)) == loop_labels(e)


def test_every_path_returns_exactly_the_lowest_cluster():
    # dense, Lanczos and both symmetric blocks: every returned eigenvalue
    # lies in the one cluster of the ground level, and no pair above it
    d = np.arange(60)
    levels = np.concatenate([np.full(6, -1.0), np.linspace(0.0, 1.0, 54)])
    spectra = [
        ground_state(op, method=method)
        for op in (operator_from_entries(60, d, d, levels), _sector_operator(4, 3, 5, 0.1, -0.3))
        for method in ("dense", "lanczos")
    ]
    spin = SpinCouplings(lambda_a=-0.15, lambda_b=-0.07, omega_at=1.0)
    spectra.append(sector_ground(ArrayGeometry(4, 3), spin, 5)[0])
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.5)
    spectra.append(jc_sector_ground(ArrayGeometry(3, 3), jc, 4)[0])
    methods = [spec.method for spec in spectra]
    assert methods == ["dense", "lanczos"] * 2 + ["symmetric-block"] * 2
    for spec in spectra:
        assert spec.converged
        assert np.all(label_degeneracies(spec.eigenvalues) == 0), spec.eigenvalues
        assert spec.eigenvectors.shape[1] == len(spec.eigenvalues) == len(spec.residual_norms)
    assert [len(spec.eigenvalues) for spec in spectra[:2]] == [6, 6]
    assert len(spectra[2].eigenvalues) == len(spectra[3].eigenvalues)


def test_input_validation():
    with pytest.raises(ValueError):
        ground_state(_scaled_identity(0))
    # an unknown method is refused on both sides of the small-dimension rule
    for dim in (10, 40):
        with pytest.raises(ValueError, match="unknown method"):
            ground_state(_scaled_identity(dim), method="arnoldi")


def _sector_operator(lx, ly, n_exc, lambda_a, lambda_b):
    geom = ArrayGeometry(lx, ly)
    couplings = SpinCouplings(lambda_a=lambda_a, lambda_b=lambda_b, omega_at=1.0)
    return build_sector_hamiltonian(geom, couplings, SectorBasis(geom, n_exc))


def test_lanczos_needs_two_rounds_above_the_cluster_to_close_it():
    # frustrated 7x2, n=11 (dim 364): the ground level is 14-fold, and at
    # seed 0 the fourth round lands on the next level (+0.419) while 11
    # copies are still missing; one such round used to close the cluster
    op = _sector_operator(7, 2, 11, 0.1, -0.3)
    dense = ground_state(op, method="dense")
    lanc = ground_state(op, method="lanczos", seed=0)
    assert dense.eigenvectors.shape[1] == 14
    assert lanc.method == "lanczos" and lanc.converged
    assert lanc.eigenvectors.shape[1] == 14
    assert np.abs(lanc.eigenvalues - dense.eigenvalues).max() <= 1e-12


@pytest.mark.parametrize("lambda_a, lambda_b", [(-0.15, -0.07), (0.1, -0.3), (-0.2, 0.12)])
def test_auto_method_matches_dense_on_every_sector(lambda_a, lambda_b):
    # every sector with 32 < dim of 3x3, 4x3 and 6x2; the larger ones take
    # the Lanczos path under method="auto"
    for lx, ly in ((3, 3), (4, 3), (6, 2)):
        for n in range(lx * ly + 1):
            if comb(lx * ly, n) <= 32:
                continue
            op = _sector_operator(lx, ly, n, lambda_a, lambda_b)
            dense = ground_state(op, method="dense")
            auto = ground_state(op, method="auto")
            m = dense.eigenvectors.shape[1]
            assert auto.converged
            assert auto.eigenvectors.shape[1] == m, (lx, ly, n)
            scale = max(1.0, abs(dense.ground_energy))
            err = np.abs(auto.eigenvalues - dense.eigenvalues).max()
            assert err <= 1e-12 * scale, (lx, ly, n, err)


def _count_eigsh(monkeypatch) -> list:
    import scipy.sparse.linalg as sla

    calls = []
    eigsh = sla.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", counted)
    return calls


def _cycle(n, hop, seed=0):
    """A ring of ``n`` states with hop ``hop`` and a random diagonal."""
    i = np.arange(n)
    j = (i + 1) % n
    d = np.random.default_rng(seed).normal(size=n)
    return operator_from_entries(
        n, np.r_[i, j, i], np.r_[j, i, i], np.r_[np.full(2 * n, hop), d]
    )


def test_gauged_perron_frobenius_closes_a_jc_sector_after_one_round(monkeypatch):
    # per-line detunings keep the 3x3 n_total=4 sector (dim 2016) on full
    # Lanczos; the gauge (-1)^k makes every entry negative, so the ground
    # level is simple and one eigsh round closes it
    calls = _count_eigsh(monkeypatch)
    jc = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=(6.0, 6.3, 5.7), delta_b=5.5)
    spec, basis = jc_sector_ground(ArrayGeometry(3, 3), jc, 4)
    assert basis.dim > DENSE_CUTOFF and spec.method == "lanczos" and spec.converged
    assert calls == [1]
    # the superradiant pencils have the same sign pattern
    assert _perron_frobenius_simple(_cycle(40, 1.0).matrix)
    assert _perron_frobenius_simple(_cycle(41, -1.0).matrix)


def test_lanczos_path_returns_a_diagonal_operator_exactly(monkeypatch):
    # no nonzero off-diagonal entry: no eigsh round, the lowest diagonal
    # cluster with unit vectors and residual 0 (a stored zero hop aside)
    calls = _count_eigsh(monkeypatch)
    d = np.arange(50)
    levels = np.where(d % 7 == 3, -0.5, 0.1 * d)
    op = operator_from_entries(50, np.r_[d, 0], np.r_[d, 1], np.r_[levels, 0.0])
    res = ground_state(op, method="lanczos")
    assert res.converged and res.method == "lanczos"
    assert np.array_equal(res.eigenvalues, np.full(7, -0.5))
    assert np.array_equal(res.eigenvectors, np.eye(50)[:, d % 7 == 3])
    assert np.array_equal(res.residual_norms, np.zeros(7))
    empty = ground_state(operator_from_entries(40, [], [], []), method="lanczos")
    assert np.array_equal(empty.eigenvalues, np.zeros(40))
    assert calls == []


def test_positive_hops_on_an_odd_ring_still_take_the_closing_rounds(monkeypatch):
    # no +-1 gauge makes every hop of an odd ring negative: not provably simple
    op = _cycle(41, 1.0)
    assert not _perron_frobenius_simple(op.matrix)
    calls = _count_eigsh(monkeypatch)
    res = ground_state(op, method="lanczos")
    dense = ground_state(op, method="dense")
    assert len(calls) == 1 + CLOSING_ROUNDS
    assert res.eigenvectors.shape[1] == dense.eigenvectors.shape[1] == 1
    assert abs(res.ground_energy - dense.ground_energy) <= 1e-12
    # a disconnected pattern is not simple either, gauged or not
    d = np.arange(2)
    assert not _perron_frobenius_simple(operator_from_entries(2, d, d, [1.0, 1.0]).matrix)
