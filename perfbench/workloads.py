"""Seeded workload generator: the CLI commands one pass of a workload runs.

Array sizes, sector lists, ``k`` and grid lengths are fixed per workload;
the seed draws only couplings, detunings and grid values, inside ranges
where every command succeeds and the work done barely depends on the draw.
Each :class:`Command` carries the generated numbers (``params``) that its
output check needs, so the checker never re-parses the argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("sector-ed", "coupling-search", "cli-session")

# The k=1 default of spin-ed reports one copy of a degenerate ground level
# (ROADMAP item 3).  The check stays in the workload and fails; a failure of
# exactly this check does not mark the run incorrect.
FRUSTRATED_MULTIPLET = "multiplet_size"


@dataclass(frozen=True)
class Command:
    """One CLI invocation with everything its output check needs."""

    label: str
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)
    out: Optional[str] = None  # --out file name, relative to the work dir
    known_defects: frozenset = frozenset()


def _num(x: float) -> float:
    """Round a draw to 6 significant digits so the argv text is exact."""
    return float(f"{x:.6g}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _cmd(label, check, argv, params=None, out=None, known=()) -> Command:
    argv = list(argv)
    if out is not None:
        argv.append(f"--out={out}")
    return Command(
        label=label,
        argv=tuple(argv),
        check=check,
        params=dict(params or {}),
        out=out,
        known_defects=frozenset(known),
    )


def _spin_level(rng: random.Random, lam_a, lam_b, omega) -> dict:
    return {
        "lambda_a": _num(rng.uniform(*lam_a)),
        "lambda_b": _num(rng.uniform(*lam_b)),
        "omega": _num(rng.uniform(*omega)),
    }


def _spin_flags(p: dict) -> list[str]:
    return [
        f"--lambda-a={_fmt(p['lambda_a'])}",
        f"--lambda-b={_fmt(p['lambda_b'])}",
        f"--omega={_fmt(p['omega'])}",
    ]


def _sector_ed(rng: random.Random) -> list[Command]:
    cmds = []
    for label, lx, ly, n in (("spin-ed-5x4-n10", 5, 4, 10), ("spin-ed-7x2-n7", 7, 2, 7)):
        p = _spin_level(rng, (-0.2, -0.1), (-0.1, -0.04), (0.8, 1.2))
        p.update(lx=lx, ly=ly, nexc=[n], shift=True)
        argv = ["spin-ed", f"--lx={lx}", f"--ly={ly}", *_spin_flags(p), f"--nexc={n}"]
        cmds.append(_cmd(label, "spin_ed", argv, p))

    # The deflated Lanczos of the k=8 solve restarts a number of times that
    # jumps with the coupling ratio (about 560 matvecs in this box, about 1970
    # at lambda_b / lambda_a = 0.71), so the draw stays where the work is steady.
    lam_a = _num(rng.uniform(-0.15, -0.13))
    p = {
        "lambda_a": lam_a,
        "lambda_b": _num(lam_a * rng.uniform(0.42, 0.48)),
        "omega": _num(rng.uniform(0.8, 1.2)),
    }
    p.update(lx=4, ly=4, nexc=[4, 8], jc_ratio=None)
    argv = ["correlations", "--lx=4", "--ly=4", *_spin_flags(p), "--nexc=4,8"]
    cmds.append(_cmd("correlations-4x4", "correlations", argv, p))

    omega = _num(rng.uniform(0.8, 1.2))
    p = {
        "lx": 3,
        "ly": 3,
        "omega": omega,
        "g": _num(rng.uniform(0.3, 0.5)),
        "delta_a": _num(rng.uniform(5.0, 7.0)),
        "delta_b": _num(rng.uniform(5.0, 7.0)),
        "ntotal": [4],
    }
    argv = [
        "jc-ed",
        "--lx=3",
        "--ly=3",
        f"--omega={_fmt(p['omega'])}",
        f"--g={_fmt(p['g'])}",
        f"--delta-a={_fmt(p['delta_a'])}",
        f"--delta-b={_fmt(p['delta_b'])}",
        "--ntotal=4",
    ]
    cmds.append(_cmd("jc-ed-3x3-n4", "jc_ed", argv, p))

    p = _spin_level(rng, (-0.2, -0.1), (-0.1, -0.04), (0.8, 1.2))
    p.update(lx=3, ly=3, nexc=[4], jc_ratio=_num(rng.uniform(36.0, 44.0)))
    argv = [
        "correlations",
        "--lx=3",
        "--ly=3",
        *_spin_flags(p),
        "--nexc=4",
        f"--jc-delta-ratio={_fmt(p['jc_ratio'])}",
    ]
    cmds.append(_cmd("correlations-3x3-jc", "correlations", argv, p))
    return cmds


def _crossover(rng: random.Random, lx: int, ly: int, label: str, out=None) -> Command:
    p = {
        "lx": lx,
        "ly": ly,
        "omega": _num(rng.uniform(0.8, 1.2)),
        "ratios": [_num(rng.uniform(15.0, 25.0)), _num(rng.uniform(35.0, 45.0))],
    }
    argv = [
        "crossover",
        f"--lx={lx}",
        f"--ly={ly}",
        f"--omega={_fmt(p['omega'])}",
        f"--delta-ratios={_grid(p['ratios'])}",
    ]
    return _cmd(label, "crossover", argv, p, out=out)


def _excitation_curve(rng: random.Random, lx: int, ly: int, points: int, label: str):
    omega = _num(rng.uniform(0.8, 1.2))
    lambdas = sorted(
        (_num(rng.uniform(-0.5, -0.02) * omega) for _ in range(points)), reverse=True
    )
    p = {"lx": lx, "ly": ly, "omega": omega, "lambdas": lambdas}
    argv = [
        "excitation-curve",
        f"--lx={lx}",
        f"--ly={ly}",
        f"--omega={_fmt(omega)}",
        f"--lambdas={_grid(lambdas)}",
    ]
    return _cmd(label, "excitation_curve", argv, p)


def _frustration_scan(rng, lx, n_da, n_eta, n_ly, label, out=None) -> Command:
    p = {
        "lx": lx,
        "omega": 1.0,
        "delta_a_ratios": sorted(_num(rng.uniform(0.05, 0.95)) for _ in range(n_da)),
        "etas": sorted(_num(rng.uniform(-8.0, -1.0)) for _ in range(n_eta)),
        "ly_ratios": sorted(round(rng.uniform(0.3, 4.0), 2) for _ in range(n_ly)),
    }
    argv = [
        "frustration-scan",
        f"--lx={lx}",
        f"--delta-a-ratios={_grid(p['delta_a_ratios'])}",
        f"--etas={_grid(p['etas'])}",
        f"--ly-ratios={_grid(p['ly_ratios'])}",
    ]
    return _cmd(label, "frustration_scan", argv, p, out=out)


def _coupling_search(rng: random.Random) -> list[Command]:
    return [
        _crossover(rng, 3, 3, "crossover-3x3"),
        _excitation_curve(rng, 4, 3, 12, "excitation-curve-4x3"),
        _frustration_scan(rng, 4, 8, 8, 8, "frustration-scan-8x8x8"),
    ]


def _polya(label: str, lx: int, ly: int, nexc=None, out=None) -> Command:
    argv = ["polya", f"--lx={lx}", f"--ly={ly}"]
    if nexc is not None:
        argv.append(f"--nexc={','.join(str(n) for n in nexc)}")
    p = {"lx": lx, "ly": ly, "nexc": nexc}
    return _cmd(label, "polya", argv, p, out=out)


def _cli_session(rng: random.Random) -> list[Command]:
    cmds = []
    p = {
        "rabi": _num(rng.uniform(3.0, 5.0)),
        "g0": _num(rng.uniform(0.03, 0.07)),
        "delta_e": _num(rng.uniform(50.0, 70.0)),
        "delta_a": _num(rng.uniform(25.0, 35.0)),
        "eta": _num(rng.uniform(-4.0, -2.0)),
    }
    argv = [
        "derive-params",
        f"--g0={_fmt(p['g0'])}",
        f"--rabi={_fmt(p['rabi'])}",
        f"--delta-e={_fmt(p['delta_e'])}",
        f"--delta-a={_fmt(p['delta_a'])}",
        f"--eta={_fmt(p['eta'])}",
    ]
    cmds.append(_cmd("derive-params", "derive_params", argv, p, out="derive.csv"))

    p = _spin_level(rng, (-0.2, -0.1), (-0.1, -0.05), (0.6, 0.8))
    p.update(lx=3, ly=3, nexc=[0, 1, 2], shift=True)
    argv = ["spin-ed", "--lx=3", "--ly=3", *_spin_flags(p), "--nexc=0,1,2"]
    cmds.append(_cmd("spin-ed-3x3", "spin_ed", argv, p))

    p = {
        "lx": 2,
        "ly": 2,
        "omega": 1.0,
        "g": _num(rng.uniform(0.3, 0.5)),
        "delta_a": _num(rng.uniform(5.0, 7.0)),
        "delta_b": _num(rng.uniform(5.0, 7.0)),
        "ntotal": None,
    }
    argv = [
        "jc-ed",
        "--lx=2",
        "--ly=2",
        "--omega=1.0",
        f"--delta-a={_fmt(p['delta_a'])}",
        f"--delta-b={_fmt(p['delta_b'])}",
        f"--g={_fmt(p['g'])}",
    ]
    cmds.append(_cmd("jc-ed-2x2-scan", "jc_ed", argv, p, out="jc.csv"))

    cmds.append(_crossover(rng, 2, 2, "crossover-2x2", out="crossover.csv"))
    cmds.append(_excitation_curve(rng, 2, 2, 3, "excitation-curve-2x2"))

    p = _spin_level(rng, (-0.2, -0.1), (-0.1, -0.05), (1.0, 1.0))
    p.update(lx=3, ly=3, nexc=[2], jc_ratio=_num(rng.uniform(36.0, 44.0)))
    argv = [
        "correlations",
        "--lx=3",
        "--ly=3",
        *_spin_flags(p),
        "--nexc=2",
        f"--jc-delta-ratio={_fmt(p['jc_ratio'])}",
    ]
    cmds.append(_cmd("correlations-3x3-jc", "correlations", argv, p))

    p = {
        "omega": 1.0,
        "lam": _num(rng.uniform(-0.08, -0.02)),
        "delta": _num(rng.uniform(1.5, 2.5)),
        "n": 4,
    }
    argv = [
        "analytic-1d",
        "--omega=1.0",
        f"--lam={_fmt(p['lam'])}",
        f"--delta={_fmt(p['delta'])}",
        "--n=4",
    ]
    cmds.append(_cmd("analytic-1d", "analytic_1d", argv, p))
    cmds.append(_cmd("analytic-1d-table", "analytic_1d", ["analytic-1d"], {}))

    delta = _num(rng.uniform(25.0, 35.0))
    g_c = (delta * 1.0 * 36 / (4.0 * 18 * 18)) ** 0.5
    p = {
        "lx": 18,
        "ly": 18,
        "delta": delta,
        "omega": 1.0,
        "g": [_num(g_c * rng.uniform(0.5, 0.95)), _num(g_c * rng.uniform(1.5, 2.5))],
    }
    argv = [
        "meanfield",
        "--lx=18",
        "--ly=18",
        f"--delta={_fmt(delta)}",
        "--omega=1.0",
        f"--g={_grid(p['g'])}",
    ]
    cmds.append(_cmd("meanfield-18x18", "meanfield", argv, p, out="meanfield.csv"))

    cmds.append(_polya("polya-3x3", 3, 3, nexc=[0, 1, 2, 3, 4]))
    cmds.append(_frustration_scan(rng, 10, 2, 2, 2, "frustration-scan-10", out="scan.csv"))
    cmds.append(_polya("polya-4x4", 4, 4, out="polya44.csv"))
    cmds.append(_polya("polya-6x2", 6, 2))

    p = _spin_level(rng, (0.05, 0.15), (-0.4, -0.2), (1.0, 1.0))
    p.update(lx=3, ly=3, nexc=[1], shift=True)
    argv = ["spin-ed", "--lx=3", "--ly=3", *_spin_flags(p), "--nexc=1"]
    cmds.append(
        _cmd(
            "spin-ed-3x3-frustrated",
            "spin_ed",
            argv,
            p,
            out="frustrated.csv",
            known=(FRUSTRATED_MULTIPLET,),
        )
    )
    return cmds


_GENERATORS = {
    "sector-ed": _sector_ed,
    "coupling-search": _coupling_search,
    "cli-session": _cli_session,
}


def generate(workload: str, seed: int) -> list[Command]:
    """The commands of one pass; the same (workload, seed) gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
