#!/usr/bin/env python3
"""Dense ``eigh`` against ARPACK Lanczos, and the symmetric orbit block
against the full sector, on real sector Hamiltonians.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/solver_sweep.py timing
    PYTHONPATH=src python3 scripts/solver_sweep.py cold
    PYTHONPATH=src python3 scripts/solver_sweep.py floor
    PYTHONPATH=src python3 scripts/solver_sweep.py rows
    PYTHONPATH=src python3 scripts/solver_sweep.py agree
    PYTHONPATH=src python3 scripts/solver_sweep.py startup

``timing`` solves spin sectors (attractive and frustrated couplings) and JC
sectors of dimension 50-4096 on both paths and prints the best of a
few repeats per path.  ``cold`` times fresh CLI processes that solve one
sector of dimension 495-2002, once forced dense and once forced Lanczos
(median of 7 each): the first Lanczos solve of a process also pays the
import of ``scipy.sparse``, which a dense solve never makes.
``linalg.DENSE_CUTOFF`` is read off these two tables.  The forced-dense
runs also raise the route floor past every sector, so that they solve the
full sector matrix; the attractive rows of the Lanczos column measure what
the CLI runs, the symmetric orbit block of ``spinmodel.sector_ground``.

``floor`` times fresh processes that solve one sector, an attractive spin
sector of dimension 36-560 or a JC sector of dimension 60-545 at scalar
detunings, once routed to the symmetric orbit block (floor 0) and once on
the full sector matrix (floor past every sector, dense), and prints the
median of 7 of the in-process solve time for each.  ``canonical.FLOOR`` is
read off this table: the dimension past which the routed solve wins for
both models.

``rows`` runs every route that ``basis.check_rows`` bounds at three or more
sizes, each in a fresh process under a 3 GiB address-space cap that the
process sets on itself, with one BLAS thread: the full spin sector matrix
(frustrated), the full JC sector matrix (per-line detunings), the spin and JC
class growths, the spin and JC orbit blocks (attractive, scalar detunings),
the mask table and the orbit table of ``symmetry.orbits``.  For each it
prints the rows that the route counted in closed form under its own name,
the process's peak RSS, and the bytes per row above the peak RSS of a
process that imports the same modules and runs nothing, against the bytes
per row recorded next to ``basis.MAX_ROWS`` (the last field of
``ROW_ROUTES``), and exits 1 if a case fails.  ``basis.MAX_ROWS`` is read off
this table: no route's bytes per row times the budget may pass 4 GiB.

``agree`` solves every spin sector of 3x3, 4x3, 6x2, 5x3 and 7x2 with
32 < dim <= 4096, at one attractive and two frustrated coupling pairs, and
every JC sector of 2x2, 3x2, 3x3 and 4x3 with 32 < dim <= 4096 (n_total up
to 7) at per-line row detunings, once dense and once by Lanczos for each of
the seeds 0-7.  It prints the case count, the worst relative energy error
over the ground cluster and every multiplet-size mismatch, and exits 1 on
any mismatch, an error over 1e-12 or a Lanczos solve that raises
``ArpackNoConvergence`` (listed as "no convergence", and the sweep goes
on).  It then solves every sector that
``spinmodel.sector_ground`` (the spin arrays at two attractive pairs, one
with lambda_a == lambda_b) or ``jcmodel.jc_sector_ground`` (the JC arrays
at scalar detunings) routes to the symmetric orbit block, and compares
energy, multiplet size and the NN and NNN correlations with the full-sector
solve (1e-12 relative on the energy, 1e-12 absolute on the correlations);
a routed sector's correlations are read from its class vector, one row per
class, by the same pair-sum kernel as the full-sector vector.  Last it
solves the critical-coupling pencil of ``jcmodel.superradiant_critical_g``
on every one of those JC sectors that it routes, once on the block and once
on the full sector, and compares the lowest eigenvalue (1e-12 relative).
Then it compares the photon breakdown coupling of
``frustration.lambda_c_photon`` on a uniform background given as a scalar
(the closed form the scan runs) with the same background given as a grid
(the numeric pencil) on every array up to 10x10, at four coupling ratios,
three detunings and s^z in {-1, -1/2, 1/2, 1} (1e-12 relative; s^z = 0 must
give no breakdown on both).

``startup`` times fresh processes that do nothing but start: the bare
interpreter, the CLI import, ``cavityspin --help``, the numpy import and the
numpy and scipy Lanczos import.  It prints the core count and the median
wall and CPU time (user plus system, from ``os.wait4``) of 15 processes per
row, once with ``OPENBLAS_THREAD_TIMEOUT=16`` (the CLI's default, a 2**16
cycle spin of each idle OpenBLAS worker) and once with 28 (OpenBLAS's own
default).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import resource
import statistics
import subprocess
import sys
import time
from math import comb

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence

from cavityspin import basis, canonical, jcmodel, spinmodel, symmetry
from cavityspin.basis import SectorBasis
from cavityspin.frustration import FrustrationParams, lambda_c_photon
from cavityspin.geometry import ArrayGeometry
from cavityspin.jcmodel import (
    JCBasis,
    _pencil_ground,
    build_jc_hamiltonian,
    jc_sector_ground,
)
from cavityspin.linalg import ground_state
from cavityspin.observables import multiplet_correlations
from cavityspin.params import EffectiveJCParams, SpinCouplings
from cavityspin.spinmodel import build_sector_hamiltonian, sector_ground

ATTRACTIVE = SpinCouplings(lambda_a=-0.15, lambda_b=-0.07, omega_at=1.0)
ATTRACTIVE_EQUAL = SpinCouplings(lambda_a=-0.1, lambda_b=-0.1, omega_at=1.0)
FRUSTRATED = (
    SpinCouplings(lambda_a=0.1, lambda_b=-0.3, omega_at=1.0),
    SpinCouplings(lambda_a=-0.2, lambda_b=0.12, omega_at=1.0),
)
AGREE_ARRAYS = ((3, 3), (4, 3), (6, 2), (5, 3), (7, 2))
JC_AGREE_ARRAYS = ((2, 2), (3, 2), (3, 3), (4, 3))
TIMING_ARRAYS = ((3, 3), (4, 3), (4, 4), (5, 3), (7, 2), (5, 4))
JC = EffectiveJCParams(omega_at=1.0, g=0.4, delta_a=6.0, delta_b=5.5)
JC_SECTORS = (((2, 2), 3), ((2, 2), 4), ((3, 2), 3), ((2, 2), 5),
              ((3, 3), 3), ((3, 2), 4), ((3, 2), 5), ((4, 2), 4), ((3, 3), 4))
MAX_DIM = 4096
RTOL = 1e-12


def spin_operator(lx, ly, n, couplings):
    geom = ArrayGeometry(lx, ly)
    return build_sector_hamiltonian(geom, couplings, SectorBasis(geom, n))


def _best(op, method, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = ground_state(op, method=method)
        best = min(best, time.perf_counter() - t0)
    return best, res


def timing() -> int:
    cases = []
    for lx, ly in TIMING_ARRAYS:
        for n in range(lx * ly // 2 + 1):
            dim = comb(lx * ly, n)
            if 50 <= dim <= MAX_DIM:
                for tag, c in (("attr", ATTRACTIVE), ("frus", FRUSTRATED[0])):
                    cases.append((dim, f"spin {lx}x{ly} n={n} {tag}",
                                  lambda lx=lx, ly=ly, n=n, c=c: spin_operator(lx, ly, n, c)))
    for (lx, ly), n in JC_SECTORS:
        geom = ArrayGeometry(lx, ly)
        basis = JCBasis(geom, n)
        cases.append((basis.dim, f"jc {lx}x{ly} n={n}",
                      lambda g=geom, b=basis: build_jc_hamiltonian(g, JC, b)))
    print(f"{'dim':>5} {'case':<24} {'dense_s':>9} {'lanczos_s':>9} winner")
    for dim, label, build in sorted(cases, key=lambda c: c[0]):
        op = build()
        repeats = 5 if dim <= 1000 else 2
        td, rd = _best(op, "dense", repeats)
        tl, rl = _best(op, "lanczos", repeats)
        same = abs(rd.ground_energy - rl.ground_energy) <= 1e-10 * max(1, abs(rd.ground_energy))
        win = "dense" if td < tl else "lanczos"
        print(f"{dim:5d} {label:<24} {td:9.4f} {tl:9.4f} {win}{'' if same else ' MISMATCH'}")
        sys.stdout.flush()
    return 0


COLD_CASES = (
    "spin-ed --lx 4 --ly 3 --lambda-a=-0.15 --lambda-b=-0.07 --omega 1 --nexc 4",
    "spin-ed --lx 4 --ly 3 --lambda-a=0.1 --lambda-b=-0.3 --omega 1 --nexc 4",
    "spin-ed --lx 4 --ly 4 --lambda-a=0.1 --lambda-b=-0.3 --omega 1 --nexc 3",
    "jc-ed --lx 3 --ly 2 --omega 1 --g 0.4 --delta-a 6 --delta-b 5.5 --ntotal 4",
    "spin-ed --lx 4 --ly 3 --lambda-a=-0.15 --lambda-b=-0.07 --omega 1 --nexc 5",
    "spin-ed --lx 4 --ly 3 --lambda-a=0.1 --lambda-b=-0.3 --omega 1 --nexc 5",
    "spin-ed --lx 4 --ly 3 --lambda-a=0.1 --lambda-b=-0.3 --omega 1 --nexc 6",
    "spin-ed --lx 7 --ly 2 --lambda-a=0.1 --lambda-b=-0.3 --omega 1 --nexc 4",
    "spin-ed --lx 5 --ly 3 --lambda-a=0.1 --lambda-b=-0.3 --omega 1 --nexc 4",
    "spin-ed --lx 4 --ly 4 --lambda-a=0.1 --lambda-b=-0.3 --omega 1 --nexc 4",
    "spin-ed --lx 7 --ly 2 --lambda-a=0.1 --lambda-b=-0.3 --omega 1 --nexc 5",
)
# runs the CLI with the cutoff forced to argv[1] and the route floor to argv[2]
COLD_MAIN = (
    "import sys, cavityspin.linalg as L, cavityspin.canonical as C; "
    "L.DENSE_CUTOFF, C.FLOOR = int(sys.argv[1]), int(sys.argv[2]); "
    "from cavityspin.cli import main; sys.exit(main(sys.argv[3:]))"
)


def cold() -> int:
    def run(cutoff, floor, argv):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", COLD_MAIN, str(cutoff), str(floor), *argv.split()],
                       env=dict(os.environ), capture_output=True, check=True)
        return time.perf_counter() - t0

    print(f"{'dense_s':>7} {'lanczos_s':>9}  command")
    for argv in COLD_CASES:
        dense, lanc = [], []
        for _ in range(7):
            dense.append(run(sys.maxsize, sys.maxsize, argv))
            lanc.append(run(0, canonical.FLOOR, argv))
        print(f"{statistics.median(dense):7.3f} {statistics.median(lanc):9.3f}  {argv}")
        sys.stdout.flush()
    return 0


# (array, sector) of every floor case, ascending by dimension: spin 36-560
# at ATTRACTIVE, JC 60-545 at JC
FLOOR_SPIN = ((3, 3, 2), (4, 3, 2), (7, 2, 2), (3, 3, 4), (6, 3, 2), (5, 4, 2),
              (5, 2, 4), (4, 3, 3), (5, 2, 5), (7, 2, 3), (5, 3, 3), (4, 3, 4),
              (4, 4, 3))
FLOOR_JC = ((3, 2, 2), (2, 2, 3), (4, 2, 2), (3, 3, 2), (5, 2, 2), (4, 3, 2),
            (2, 2, 4), (3, 2, 3), (2, 2, 5), (4, 2, 3), (3, 3, 3))
# runs floor_case(*argv[3:]) with the route floor forced to argv[1], the CLI
# modules imported first as in a CLI run, and prints its time and method
FLOOR_MAIN = (
    "import sys, cavityspin.cli, cavityspin.canonical as C; C.FLOOR = int(sys.argv[1]); "
    "sys.path.insert(0, sys.argv[2]); from solver_sweep import floor_case; "
    "print(*floor_case(*sys.argv[3:]))"
)


def floor_case(model, lx, ly, n):
    """Seconds and method of one solve of a floor case."""
    geom = ArrayGeometry(int(lx), int(ly))
    solve = sector_ground if model == "spin" else jc_sector_ground
    t0 = time.perf_counter()
    spec, _ = solve(geom, ATTRACTIVE if model == "spin" else JC, int(n))
    return time.perf_counter() - t0, spec.method


def floor() -> int:
    here = os.path.dirname(os.path.abspath(__file__))

    def run(floor_value, case):
        out = subprocess.run(
            [sys.executable, "-c", FLOOR_MAIN, str(floor_value), here, *map(str, case)],
            env=dict(os.environ), capture_output=True, check=True, text=True,
        ).stdout.split()
        return float(out[0]), out[1]

    print(f"{'dim':>5} {'case':<16} {'routed_s':>8} {'full_s':>8} winner")
    for model, cases in (("spin", FLOOR_SPIN), ("jc", FLOOR_JC)):
        for lx, ly, n in cases:
            dim = comb(lx * ly, n) if model == "spin" else JCBasis(ArrayGeometry(lx, ly), n).dim
            routed, full = [], []
            for _ in range(7):
                t, method = run(0, (model, lx, ly, n))
                assert method == "symmetric-block", method
                routed.append(t)
                t, method = run(sys.maxsize, (model, lx, ly, n))
                assert method == "dense", method
                full.append(t)
            tr, tf = statistics.median(routed), statistics.median(full)
            label = f"{model} {lx}x{ly} n={n}"
            print(f"{dim:5d} {label:<16} {tr:8.4f} {tf:8.4f} {'routed' if tr < tf else 'full'}")
            sys.stdout.flush()
    return 0


# each route: the name it counts its rows under, its run on (geometry, n)
# from a fresh process, and the bytes per row recorded next to basis.MAX_ROWS
ROW_ROUTES = {
    "spin-matrix": ("sector matrix", lambda g, n: sector_ground(g, FRUSTRATED[0], n), 100),
    "jc-matrix": ("sector matrix", lambda g, n: jc_sector_ground(g, _per_line(g), n), 60),
    "spin-growth": ("class growth", canonical.symmetric_sector, 120),
    "jc-growth": ("class growth", canonical.symmetric_jc_sector, 250),
    "spin-block": ("orbit block", lambda g, n: sector_ground(g, ATTRACTIVE, n), 80),
    "jc-block": ("orbit block", lambda g, n: jc_sector_ground(g, JC, n), 140),
    "mask-table": ("sector table", lambda g, n: basis.enumerate_masks(g.n_sites, n), 20),
    "orbit-table": ("sector table", lambda g, n: symmetry.orbits(symmetry.build_group(g), n), 120),
}
ROW_CASES = (
    ("spin-matrix", 4, 4, 8), ("spin-matrix", 5, 4, 6), ("spin-matrix", 6, 3, 9),
    ("jc-matrix", 3, 3, 6), ("jc-matrix", 4, 3, 6), ("jc-matrix", 3, 3, 8),
    ("jc-matrix", 39, 1, 3),
    ("spin-growth", 6, 5, 15), ("spin-growth", 7, 5, 14), ("spin-growth", 20, 3, 30),
    ("spin-growth", 10, 4, 20),
    ("jc-growth", 3, 3, 13), ("jc-growth", 3, 3, 16), ("jc-growth", 3, 3, 20),
    ("spin-block", 7, 4, 14), ("spin-block", 6, 5, 15), ("spin-block", 8, 4, 16),
    ("jc-block", 3, 3, 11), ("jc-block", 3, 3, 12), ("jc-block", 3, 3, 13),
    ("mask-table", 11, 2, 11), ("mask-table", 8, 3, 12), ("mask-table", 5, 5, 12),
    ("orbit-table", 5, 4, 10), ("orbit-table", 7, 3, 10), ("orbit-table", 6, 4, 11),
)
ROWS_CAP = 3 << 30
# runs rows_case(*argv[3:]) under an address-space cap of argv[1] bytes, set
# by the process itself, the CLI modules imported first as in a CLI run
ROWS_MAIN = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2); "
    "import cavityspin.cli; sys.path.insert(0, sys.argv[2]); from solver_sweep import rows_case; "
    "print(*rows_case(*sys.argv[3:]))"
)


def rows_case(route, lx=1, ly=1, n=0):
    """The largest row count that one run of a route checked under its own
    name, and the peak RSS of this process in bytes; the route "baseline"
    runs nothing."""
    checked = [0]
    if route != "baseline":
        what, run, _ = ROW_ROUTES[route]

        def record(rows, name, check=basis.check_rows):
            checked.append(rows if name == what else 0)
            check(rows, name)

        for module in (basis, canonical, jcmodel, spinmodel):
            module.check_rows = record
        run(ArrayGeometry(int(lx), int(ly)), int(n))
    return max(checked), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def rows() -> int:
    here = os.path.dirname(os.path.abspath(__file__))

    def run(*case):
        out = subprocess.run(
            [sys.executable, "-c", ROWS_MAIN, str(ROWS_CAP), here, *map(str, case)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        )
        if out.returncode:
            return None, out.stderr.strip().splitlines()[-1]
        return tuple(map(int, out.stdout.split()))

    _, base = run("baseline")
    print(f"nproc {os.cpu_count()}, affinity {len(os.sched_getaffinity(0))}; fresh processes "
          f"under a {ROWS_CAP >> 30} GiB address-space cap; baseline peak RSS "
          f"{base / 2**20:.1f} MiB")
    print(f"{'route':<12} {'case':<9} {'rows':>9} {'peak_MiB':>8} {'B/row':>6} "
          f"{'recorded':>8} {'ratio':>5}")
    failed = 0
    for route, lx, ly, n in ROW_CASES:
        count, peak = run(route, lx, ly, n)
        label = f"{lx}x{ly} n={n}"
        if count is None:
            print(f"{route:<12} {label:<9} failed: {peak}")
            failed += 1
            continue
        per_row, recorded = (peak - base) / count, ROW_ROUTES[route][2]
        print(f"{route:<12} {label:<9} {count:9d} {peak / 2**20:8.1f} {per_row:6.0f} "
              f"{recorded:8d} {per_row / recorded:5.2f}")
        sys.stdout.flush()
    return 1 if failed else 0


STARTUP_CASES = (
    ("python -c pass", ("-c", "pass")),
    ("import cavityspin.cli", ("-c", "import cavityspin.cli")),
    ("cavityspin --help", ("-m", "cavityspin.cli", "--help")),
    ("import numpy", ("-c", "import numpy")),
    ("import numpy, scipy.sparse.linalg", ("-c", "import numpy, scipy.sparse.linalg")),
)
# OPENBLAS_THREAD_TIMEOUT: the CLI's default, then OpenBLAS's own
STARTUP_SPINS = ("16", "28")


def startup() -> int:
    def run(args, spin):
        env = dict(os.environ, OPENBLAS_THREAD_TIMEOUT=spin)
        env.pop("GOTO_THREAD_TIMEOUT", None)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} exited {proc.returncode}")
        return wall, usage.ru_utime + usage.ru_stime

    print(f"nproc {os.cpu_count()}, median of 15 fresh processes, ms")
    print(f"{'':<34}" + "".join(f" {'wall@' + s:>8} {'cpu@' + s:>8}" for s in STARTUP_SPINS))
    for label, args in STARTUP_CASES:
        times = {spin: [] for spin in STARTUP_SPINS}
        for _ in range(15):
            for spin in STARTUP_SPINS:
                times[spin].append(run(args, spin))
        cells = "".join(
            f" {1e3 * statistics.median(w for w, _ in times[s]):8.1f}"
            f" {1e3 * statistics.median(c for _, c in times[s]):8.1f}"
            for s in STARTUP_SPINS
        )
        print(f"{label:<34}{cells}")
        sys.stdout.flush()
    return 0


def _agree_operators():
    """``(label, operator)`` of every agree case: the spin sectors at three
    coupling pairs, and the JC sectors at per-line detunings (full Lanczos,
    closed after one round by the gauged Perron-Frobenius test)."""
    for lx, ly in AGREE_ARRAYS:
        for n in range(lx * ly + 1):
            if 32 < comb(lx * ly, n) <= MAX_DIM:
                for c in (ATTRACTIVE, *FRUSTRATED):
                    label = f"{lx}x{ly} n={n} la={c.lambda_a:g} lb={c.lambda_b:g}"
                    yield label, spin_operator(lx, ly, n, c)
    for geom, basis in _jc_sectors():
        label = f"jc {geom.lx}x{geom.ly} n={basis.n_total} per-line"
        yield label, build_jc_hamiltonian(geom, _per_line(geom), basis)


def _jc_sectors():
    for lx, ly in JC_AGREE_ARRAYS:
        geom = ArrayGeometry(lx, ly)
        for n in range(1, 8):
            basis = JCBasis(geom, n)
            if 32 < basis.dim <= MAX_DIM:
                yield geom, basis


def _per_line(geom):
    return dataclasses.replace(JC, delta_a=tuple(6.0 + 0.3 * i for i in range(geom.ly)))


def agree() -> int:
    cases = worst = 0
    bad = []
    for label, op in _agree_operators():
        dense = ground_state(op, method="dense")
        m = dense.eigenvectors.shape[1]
        for seed in range(8):
            cases += 1
            try:
                lanc = ground_state(op, method="lanczos", seed=seed)
            except ArpackNoConvergence:
                bad.append(f"{label} seed={seed} no convergence")
                continue
            ml = lanc.eigenvectors.shape[1]
            e = dense.eigenvalues
            err = np.abs(lanc.eigenvalues[:min(m, ml)] - e[:min(m, ml)]).max()
            rel = float(err / max(1.0, abs(e[0])))
            worst = max(worst, rel)
            if ml != m or not lanc.converged or rel > RTOL:
                bad.append(f"{label} seed={seed} dense m={m} lanczos m={ml} rel={rel:.3g}")
    print(f"cases {cases}  worst relative energy error {worst:.3g}  failures {len(bad)}")
    for row in bad:
        print("  " + row)
    return max(1 if bad else 0, agree_symmetric_block())


def _block_cases():
    """``(label, routed spectrum, its classes, full-sector spectrum, sector
    basis)`` of every sector that the spin or the JC solver routes to the
    symmetric block, told by the method of its spectrum.  A routed sector
    comes back as its classes and a block vector, never expanded."""
    for lx, ly in AGREE_ARRAYS:
        geom = ArrayGeometry(lx, ly)
        for n in range(lx * ly + 1):
            for c in (ATTRACTIVE, ATTRACTIVE_EQUAL):
                spec, sector = sector_ground(geom, c, n)
                if spec.method == "symmetric-block":
                    basis = SectorBasis(geom, n)
                    ref = ground_state(build_sector_hamiltonian(geom, c, basis))
                    label = f"{lx}x{ly} n={n} la={c.lambda_a:g} lb={c.lambda_b:g}"
                    yield label, spec, sector, ref, basis
    for geom, basis in _jc_sectors():
        spec, sector = jc_sector_ground(geom, JC, basis.n_total)
        if spec.method == "symmetric-block":
            ref = ground_state(build_jc_hamiltonian(geom, JC, basis))
            yield f"jc {geom.lx}x{geom.ly} n={basis.n_total}", spec, sector, ref, basis


def _pencil_cases():
    """``(label, routed mu, full-sector mu)`` of every JC sector whose
    critical-coupling pencil ``jcmodel.superradiant_critical_g`` routes to
    the symmetric block, at unit g and the detunings of JC."""
    unit = dataclasses.replace(JC, g=1.0)
    for geom, basis in _jc_sectors():
        spec = _pencil_ground(geom, unit, basis.n_total, None, 0)
        if spec.method == "symmetric-block":
            saved, canonical.FLOOR = canonical.FLOOR, sys.maxsize
            try:
                ref = _pencil_ground(geom, unit, basis.n_total, None, 0)
            finally:
                canonical.FLOOR = saved
            label = f"jc pencil {geom.lx}x{geom.ly} n={basis.n_total}"
            yield label, spec.ground_energy, ref.ground_energy


def agree_symmetric_block() -> int:
    cases = 0
    worst_e = worst_c = 0.0
    bad = []
    for label, spec, sector, ref, basis in _block_cases():
        cases += 1
        e = ref.ground_energy
        rel = abs(spec.ground_energy - e) / max(1.0, abs(e))
        mine, theirs = multiplet_correlations(spec, sector), multiplet_correlations(ref, basis)
        dc = max(abs(mine.sigma_nn - theirs.sigma_nn),
                 abs(mine.sigma_nnn - theirs.sigma_nnn))
        worst_e, worst_c = max(worst_e, rel), max(worst_c, dc)
        if mine.multiplet_size != theirs.multiplet_size or rel > RTOL or dc > RTOL:
            bad.append((label, theirs.multiplet_size, mine.multiplet_size, rel, dc))
    print(f"symmetric block: cases {cases}  worst relative energy error {worst_e:.3g}  "
          f"worst correlation error {worst_c:.3g}  failures {len(bad)}")
    for row in bad:
        print("  %s full m=%d block m=%d rel=%.3g corr=%.3g" % row)
    pencils = worst_mu = 0
    bad_mu = []
    for label, mu, ref in _pencil_cases():
        pencils += 1
        rel = abs(mu - ref) / abs(ref)
        worst_mu = max(worst_mu, rel)
        if rel > RTOL:
            bad_mu.append((label, ref, mu, rel))
    print(f"symmetric pencil: cases {pencils}  worst relative mu error {worst_mu:.3g}  "
          f"failures {len(bad_mu)}")
    for row in bad_mu:
        print("  %s full mu=%.17g block mu=%.17g rel=%.3g" % row)
    return max(1 if bad or bad_mu else 0, agree_scan())


def _scan_cases():
    """``(label, closed-form lambda_c, grid-pencil lambda_c)`` of uniform
    backgrounds, ``None`` for no breakdown."""
    for lx in range(1, 11):
        for ly in range(1, 11):
            for eta in (-0.3, -1.0, -3.0, -8.0):
                for da in (0.05, 0.4, 0.95):
                    p = FrustrationParams(lx=lx, ly=ly, delta_a=da, omega_at=1.0, eta=eta)
                    for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
                        label = f"scan {lx}x{ly} eta={eta:g} da={da:g} s={s:g}"
                        grid = lambda_c_photon(p, s_z=np.full((ly, lx), s))
                        yield label, lambda_c_photon(p, s_z=s), grid


def agree_scan() -> int:
    cases = worst = 0
    bad = []
    for label, closed, grid in _scan_cases():
        cases += 1
        if closed is None or grid is None:
            if closed is not grid or not label.endswith("s=0"):
                bad.append((label, grid, closed))
            continue
        rel = abs(closed - grid) / grid
        worst = max(worst, rel)
        if rel > RTOL:
            bad.append((label, grid, closed))
    print(f"scan closed form: cases {cases}  worst relative lambda_c error {worst:.3g}  "
          f"failures {len(bad)}")
    for row in bad:
        print("  %s grid lambda_c=%r closed lambda_c=%r" % row)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = {"timing": timing, "cold": cold, "floor": floor, "rows": rows, "agree": agree,
             "startup": startup}
    parser.add_argument("mode", choices=tuple(modes))
    args = parser.parse_args(argv)
    return modes[args.mode]()


if __name__ == "__main__":
    sys.exit(main())
