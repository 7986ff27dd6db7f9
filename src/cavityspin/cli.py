"""Command-line surface: flag/config ingestion, dispatch, CSV + sidecar output.

One command per process.  Parameters may be given at any one of three
levels (raw drive, effective JC, or spin couplings) where the command
supports it; grids are comma-separated lists.  A JSON config file supplies
defaults and explicit flags override it.  Energies are reported in units
of omega_at unless ``--units raw``.  Exit codes: 0 success, 1 compute
failure, 2 usage error; failures print a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import math
import sys
import time
from typing import Any, Callable, Optional, Sequence

from . import io as tableio
from .geometry import ArrayGeometry
from .params import (
    EffectiveJCParams,
    PhysicalDriveParams,
    RegimeError,
    ResonanceError,
    SpinCouplings,
    analyze,
    delta_b_from_eta,
    derive_effective_params,
    derive_spin_couplings,
)


def _lazy(name: str):
    """The package module ``name``: in ``sys.modules`` from now on, but
    executed only on its first attribute access."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# A command executes (and imports numpy for) only the models it calls, so
# --help and the closed forms run without numpy.  basis and linalg are
# registered too: every layer module is named in sys.modules from the start,
# where perfbench/layers.py finds the functions it wraps.
_lazy("basis")
_lazy("linalg")
frustration = _lazy("frustration")
jcmodel = _lazy("jcmodel")
meanfield = _lazy("meanfield")
onedim = _lazy("onedim")
spinmodel = _lazy("spinmodel")
symmetry = _lazy("symmetry")


class UsageError(Exception):
    """Unusable flags or config file; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclasses.dataclass
class CommandResult:
    """Raw (unscaled) table plus which columns carry energies."""

    semantic: dict
    columns: tuple[str, ...]
    rows: list[tuple]
    energy_columns: tuple[str, ...] = ()
    omega_unit: Optional[float] = None


_MISSING = object()


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _opt(
    args: argparse.Namespace,
    cfg: dict,
    name: str,
    cast: Optional[Callable[[Any], Any]] = None,
    default: Any = None,
):
    value = getattr(args, name, None)
    if value is None:
        value = cfg.get(name)
    if value is None:
        return default
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad value for {_flag(name)}: {exc}") from exc


def _req(args, cfg, name, cast=None):
    value = _opt(args, cfg, name, cast, default=_MISSING)
    if value is _MISSING:
        raise UsageError(f"missing required option {_flag(name)}")
    return value


def _floats(value) -> list[float]:
    """A comma-separated string, a list or one value, as finite floats.  A
    boolean is refused, though Python counts it as an integer."""
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip() != ""]
    out = []
    for v in value if isinstance(value, (list, tuple)) else [value]:
        if isinstance(v, bool):
            raise ValueError(f"{v} is not a number")
        out.append(float(v))
        if not math.isfinite(out[-1]):
            raise ValueError(f"{out[-1]} is not finite")
    return out


def _ints(value) -> list[int]:
    out = _floats(value)
    for v in out:
        if v != int(v) or abs(v) >= 2**53:  # past 2**53 a float is no exact integer
            raise ValueError(f"{v} is not an integer below 2**53")
    return [int(v) for v in out]


def _float(value) -> float:  # one value: a string is not split
    return _floats([value])[0]


def _int(value) -> int:
    return _ints([value])[0]


def _bool(args, cfg, name, default: Optional[bool]) -> Optional[bool]:
    value = getattr(args, name, None)
    if value is None:
        value = cfg.get(name)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise UsageError(f"{_flag(name)} must be a boolean")
    return value


def _nonempty(grid: list, name: str) -> list:
    if not grid:
        raise UsageError(f"empty sweep grid for {_flag(name)}")
    return grid


def _at_least(value, low, name: str):
    """An optional flag value checked against its lower bound where it is
    parsed, so a bad one is a usage error."""
    if value is not None and value < low:
        raise UsageError(f"{_flag(name)} must be >= {low}, got {value}")
    return value


def _sectors(values: list[int], name: str, top: float = math.inf) -> list[int]:
    """A non-empty ``--nexc`` or ``--ntotal`` list, every sector in
    [0, top]: checked before any solve, so a bad one is a usage error."""
    for n in _nonempty(values, name):
        if not 0 <= n <= top:
            raise UsageError(f"n_{name[1:]}={n} outside [0, {top}]")
    return values


def _geometry(args, cfg) -> ArrayGeometry:
    lx = _req(args, cfg, "lx", _int)
    ly = _req(args, cfg, "ly", _int)
    try:
        return ArrayGeometry(lx, ly)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_level(args, cfg, *, need_modes: bool):
    """Build couplings from exactly one parameter level.

    Markers: --g0 selects the drive level, --g the JC level, --lambda-a the
    spin level.  Returns (SpinCouplings, EffectiveJCParams or None, semantic
    dict); commands that need mode detunings reject the spin level.
    """
    markers = [
        name
        for name, given in (
            ("drive", _opt(args, cfg, "g0") is not None),
            ("jc", _opt(args, cfg, "g") is not None),
            ("spin", _opt(args, cfg, "lambda_a") is not None),
        )
        if given
    ]
    if len(markers) != 1:
        raise UsageError(
            "exactly one parameter level required: --g0 ... (drive), "
            "--g ... (JC), or --lambda-a ... (spin)"
        )
    level = markers[0]
    if level == "spin":
        if need_modes:
            raise UsageError("this command needs mode detunings: use the JC or drive level")
        omega = _req(args, cfg, "omega", _float)
        lam_a = _req(args, cfg, "lambda_a", _float)
        lam_b = _opt(args, cfg, "lambda_b", _float, default=lam_a)
        couplings = SpinCouplings(lambda_a=lam_a, lambda_b=lam_b, omega_at=omega)
        semantic = {
            "level": "spin",
            "omega_at": omega,
            "lambda_a": lam_a,
            "lambda_b": lam_b,
        }
        return couplings, None, semantic

    if level == "jc":
        delta_a, delta_b_at = _detunings(args, cfg)
        omega = _req(args, cfg, "omega", _float)
        g = _at_least(_req(args, cfg, "g", _float), 0, "g")  # a magnitude
        jc = EffectiveJCParams(
            omega_at=omega, g=g, delta_a=delta_a, delta_b=delta_b_at(omega)
        )
    else:
        _, jc = _drive_level(args, cfg)
    couplings = derive_spin_couplings(jc)
    semantic = {
        "level": level,
        "omega_at": jc.omega_at,
        "g": jc.g,
        "delta_a": jc.delta_a,
        "delta_b": jc.delta_b,
    }
    return couplings, jc, semantic


def _detunings(args, cfg) -> tuple[float, Callable[[float], float]]:
    """``delta_a`` and ``delta_b`` as a function of the splitting: it is
    ``--delta-b``, else from ``--eta`` at the splitting, else ``delta_a``.
    At most one of ``--delta-b`` and ``--eta`` is given."""
    delta_a = _req(args, cfg, "delta_a", _float)
    delta_b = _opt(args, cfg, "delta_b", _float)
    eta = _opt(args, cfg, "eta", _float)
    if delta_b is not None and eta is not None:
        raise UsageError("give --delta-b or --eta, not both")

    def delta_b_at(omega_at: float) -> float:
        if eta is not None:
            return delta_b_from_eta(delta_a, omega_at, eta)
        return delta_a if delta_b is None else delta_b

    return delta_a, delta_b_at


def _drive_level(args, cfg) -> tuple[PhysicalDriveParams, EffectiveJCParams]:
    """Drive flags and the effective JC parameters they give, ``delta_b``
    at the derived splitting."""
    delta_a, delta_b_at = _detunings(args, cfg)
    drive = PhysicalDriveParams(
        omega_rabi=_req(args, cfg, "rabi", _float),
        g0=_req(args, cfg, "g0", _float),
        delta_e=_req(args, cfg, "delta_e", _float),
    )
    jc = derive_effective_params(drive, delta_a, delta_a)
    return drive, dataclasses.replace(jc, delta_b=delta_b_at(jc.omega_at))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_derive_params(args, cfg, seed: int) -> CommandResult:
    drive, jc = _drive_level(args, cfg)
    couplings, tag = analyze(jc)
    row = (
        jc.omega_at,
        jc.g,
        jc.g_sign,
        jc.delta_a,
        jc.delta_b,
        couplings.lambda_a,
        couplings.lambda_b,
        couplings.eta,
        couplings.omega_at_prime,
        tag.frustration,
        tag.interaction_strength,
        tag.eps_a,
        tag.eps_b,
        "true" if tag.reduction_valid else "false",
        ";".join(jc.warnings) if jc.warnings else None,
    )
    return CommandResult(
        semantic={
            "rabi": drive.omega_rabi,
            "g0": drive.g0,
            "delta_e": drive.delta_e,
            "delta_a": jc.delta_a,
            "delta_b": jc.delta_b,
        },
        columns=(
            "omega_at",
            "g",
            "g_sign",
            "delta_a",
            "delta_b",
            "lambda_a",
            "lambda_b",
            "eta",
            "omega_at_prime",
            "frustration",
            "interaction_strength",
            "eps_a",
            "eps_b",
            "reduction_valid",
            "warnings",
        ),
        rows=[row],
        energy_columns=(
            "omega_at",
            "g",
            "delta_a",
            "delta_b",
            "lambda_a",
            "lambda_b",
            "omega_at_prime",
        ),
        omega_unit=jc.omega_at,
    )


def _cmd_spin_ed(args, cfg, seed: int) -> CommandResult:
    geom = _geometry(args, cfg)
    couplings, _, level = _resolve_level(args, cfg, need_modes=False)
    nexc = _sectors(_req(args, cfg, "nexc", _ints), "nexc", geom.n_sites)
    shift = _bool(args, cfg, "shift", True)
    _opt(args, cfg, "k", _int)  # accepted no-op: every solve returns the ground cluster
    rows = []
    for n in nexc:
        spec, basis = spinmodel.sector_ground(
            geom, couplings, n, include_lambda_shift=shift, seed=seed
        )
        rows.append(
            (n, basis.dim, spec.ground_energy, spec.eigenvectors.shape[1])
        )
    return CommandResult(
        semantic={
            "lx": geom.lx,
            "ly": geom.ly,
            "params": level,
            "nexc": nexc,
            "shift": shift,
        },
        columns=("n_exc", "dim", "energy", "multiplet_size"),
        rows=rows,
        energy_columns=("energy",),
        omega_unit=couplings.omega_at,
    )


def _cmd_jc_ed(args, cfg, seed: int) -> CommandResult:
    geom = _geometry(args, cfg)
    _, jc, level = _resolve_level(args, cfg, need_modes=True)
    n_max = _at_least(_opt(args, cfg, "nmax", _int), 0, "nmax")
    ntotal = _opt(args, cfg, "ntotal", _ints)
    rows = []
    if ntotal is not None:
        for n in _sectors(ntotal, "ntotal"):
            spec, basis = jcmodel.jc_sector_ground(geom, jc, n, n_max=n_max, seed=seed)
            rows.append((n, basis.dim, spec.ground_energy, None))
    else:
        result = jcmodel.jc_ground_state(geom, jc, n_max=n_max, seed=seed)
        for n, dim, energy in result.scan:
            rows.append(
                (n, dim, energy, "true" if n == result.n_total else "false")
            )
    return CommandResult(
        semantic={
            "lx": geom.lx,
            "ly": geom.ly,
            "params": level,
            "ntotal": ntotal,
            "nmax": n_max,
        },
        columns=("n_total", "dim", "energy", "is_ground"),
        rows=rows,
        energy_columns=("energy",),
        omega_unit=jc.omega_at,
    )


def _cmd_crossover(args, cfg, seed: int) -> CommandResult:
    geom = _geometry(args, cfg)
    omega = _req(args, cfg, "omega", _float)
    if omega <= 0.0:
        raise UsageError("crossover sweep requires omega > 0")
    ratios = _nonempty(_req(args, cfg, "delta_ratios", _floats), "delta_ratios")
    sectors = _at_least(_opt(args, cfg, "sectors", _int, default=3), 1, "sectors")
    _opt(args, cfg, "tol", _float)  # accepted no-op: g_c_jc is an eigenvalue
    n_max = _at_least(_opt(args, cfg, "nmax", _int), 0, "nmax")
    tps = spinmodel.transition_couplings(
        geom,
        omega,
        lambda_min=-0.6 * omega,
        lambda_max=-1e-9 * omega,
        max_transitions=1,
    )
    if not tps:
        raise RegimeError("no 0 -> 1 spin crossing inside the search bracket")
    lam_c = tps[0].lambda_c
    rows = []
    for ratio in ratios:
        delta = ratio * omega
        rad = -2.0 * lam_c * (delta - omega)
        if rad <= 0.0:
            raise RegimeError(
                f"delta/omega = {ratio:g} gives no real spin-model coupling"
            )
        g_spin = math.sqrt(rad)
        g_jc = jcmodel.superradiant_critical_g(
            geom,
            omega,
            delta,
            delta,
            g_lo=0.2 * g_spin,
            g_hi=3.0 * g_spin,
            sectors=sectors,
            n_max=n_max,
            seed=seed,
        )
        g_closed = jcmodel.one_excitation_crossing_g(geom, omega, delta)
        rows.append(
            (ratio, lam_c, g_spin, g_jc, g_closed, abs(g_jc - g_spin) / g_spin)
        )
    return CommandResult(
        semantic={
            "lx": geom.lx,
            "ly": geom.ly,
            "omega_at": omega,
            "delta_ratios": ratios,
            "sectors": sectors,
            "nmax": n_max,
        },
        columns=(
            "delta_over_omega",
            "lambda_c_spin",
            "g_c_spin",
            "g_c_jc",
            "g_c_one_exc",
            "rel_diff",
        ),
        rows=rows,
        energy_columns=("lambda_c_spin", "g_c_spin", "g_c_jc", "g_c_one_exc"),
        omega_unit=omega,
    )


def _cmd_excitation_curve(args, cfg, seed: int) -> CommandResult:
    geom = _geometry(args, cfg)
    omega = _req(args, cfg, "omega", _float)
    lambdas = _nonempty(_req(args, cfg, "lambdas", _floats), "lambdas")
    shift = _bool(args, cfg, "shift", True)
    rows = spinmodel.excitation_curve(geom, omega, lambdas, include_lambda_shift=shift)
    return CommandResult(
        semantic={
            "lx": geom.lx,
            "ly": geom.ly,
            "omega_at": omega,
            "lambdas": lambdas,
            "shift": shift,
        },
        columns=("lambda", "n_exc", "energy"),
        rows=[tuple(r) for r in rows],
        energy_columns=("lambda", "energy"),
        omega_unit=omega,
    )


def _cmd_correlations(args, cfg, seed: int) -> CommandResult:
    geom = _geometry(args, cfg)
    couplings, _, level = _resolve_level(args, cfg, need_modes=False)
    nexc = _sectors(_req(args, cfg, "nexc", _ints), "nexc", geom.n_sites)
    jc_ratio = _opt(args, cfg, "jc_delta_ratio", _float)
    _opt(args, cfg, "k", _int)  # accepted no-op: every solve returns the ground cluster
    rows = []
    for n in nexc:
        spec, basis = spinmodel.sector_ground(geom, couplings, n, seed=seed)
        r = spinmodel.correlation_ratio(spec, basis)
        rows.append(("spin", n, r.sigma_nn, r.sigma_nnn, r.ratio))
    if jc_ratio is not None:
        omega = couplings.omega_at
        delta_a = jc_ratio * omega
        rad = -2.0 * couplings.lambda_a * (delta_a - omega)
        if rad <= 0.0 or couplings.lambda_b == 0.0:
            raise RegimeError(
                "cannot realize these couplings at the requested detuning ratio"
            )
        g = math.sqrt(rad)
        delta_b = omega - g * g / (2.0 * couplings.lambda_b)
        jc = EffectiveJCParams(omega_at=omega, g=g, delta_a=delta_a, delta_b=delta_b)
        for n in nexc:
            spec, basis = jcmodel.jc_sector_ground(geom, jc, n, seed=seed)
            r = jcmodel.jc_correlation_ratio(spec, basis)
            rows.append(("jc", n, r.sigma_nn, r.sigma_nnn, r.ratio))
    return CommandResult(
        semantic={
            "lx": geom.lx,
            "ly": geom.ly,
            "params": level,
            "nexc": nexc,
            "jc_delta_ratio": jc_ratio,
        },
        columns=("model", "n_exc", "sigma_nn", "sigma_nnn", "ratio"),
        rows=rows,
    )


def _cmd_analytic_1d(args, cfg, seed: int) -> CommandResult:
    omega = _opt(args, cfg, "omega", _float)
    lam = _opt(args, cfg, "lam", _float)
    delta = _opt(args, cfg, "delta", _float)
    n_spins = _at_least(_opt(args, cfg, "n", _int), 1, "n")
    given = [v is not None for v in (omega, lam, delta)]
    if any(given) and not all(given):
        raise UsageError("give all of --omega, --lam, --delta or none (sign table)")
    if n_spins is not None and not any(given):
        raise UsageError("--n needs --omega, --lam and --delta")
    columns = (
        "omega_at",
        "lambda",
        "delta",
        "outcome",
        "m_ground",
        "n_exc",
        "photon_branch",
        "energy",
    )
    rows: list[tuple] = []
    if not any(given):
        for s_o, s_l, s_d, outcome in onedim.SIGN_TABLE_ROWS:
            rows.append(
                (float(s_o), float(s_l), float(s_d), outcome, None, None, None, None)
            )
    else:
        phase = onedim.classify_1d(omega, lam, delta)
        extra: tuple = (None, None, None, None)
        if n_spins is not None:
            g1 = onedim.ground_state_1d(n_spins, delta, omega, lam)
            extra = (g1.m_star, g1.n_exc, g1.photon_behavior, g1.energy)
        rows.append((omega, lam, delta, phase.outcome) + extra)
    return CommandResult(
        semantic={
            "omega_at": omega,
            "lam": lam,
            "delta": delta,
            "n": n_spins,
        },
        columns=columns,
        rows=rows,
    )


def _cmd_meanfield(args, cfg, seed: int) -> CommandResult:
    geom = _geometry(args, cfg)
    delta = _req(args, cfg, "delta", _float)
    omega = _req(args, cfg, "omega", _float)
    gs = _opt(args, cfg, "g", _floats)
    for g in gs or ():
        _at_least(g, 0, "g")
    g_c = meanfield.mf_critical_g(geom, delta, omega)
    rows: list[tuple] = []
    if gs is None:
        rows.append((None, g_c, None, None, None, None))
    else:
        _nonempty(gs, "g")
        for g in gs:
            sol = meanfield.solve(geom, g, delta, omega)
            rows.append(
                (
                    g,
                    g_c,
                    sol.alpha_sq,
                    sol.n_exc,
                    sol.sigma_z,
                    "true" if sol.superradiant else "false",
                )
            )
    return CommandResult(
        semantic={
            "lx": geom.lx,
            "ly": geom.ly,
            "delta": delta,
            "omega_at": omega,
            "g": gs,
        },
        columns=("g", "g_c", "alpha_sq", "n_exc", "sigma_z", "superradiant"),
        rows=rows,
        energy_columns=("g", "g_c"),
        omega_unit=omega,
    )


def _cmd_polya(args, cfg, seed: int) -> CommandResult:
    geom = _geometry(args, cfg)
    nexc = _opt(args, cfg, "nexc", _ints)
    if nexc is None:
        nexc = list(range(geom.n_sites + 1))
    _sectors(nexc, "nexc", geom.n_sites)
    transpose = _bool(args, cfg, "transpose", None)
    if transpose and geom.lx != geom.ly:
        raise UsageError("transpose requires a square array")
    group = symmetry.build_group(geom, transpose)
    inventory = symmetry.cycle_index(group).pattern_inventory()
    rows = []
    for n in nexc:
        sizes = sorted(symmetry.grown_classes(group, n)[2].tolist())
        count = inventory[n]
        if count != len(sizes):
            raise ArithmeticError(
                f"pattern inventory {count} disagrees with orbit partition "
                f"{len(sizes)} at n_exc={n}"
            )
        rows.append(
            (
                n,
                len(sizes),
                ";".join(map(str, sizes)),
                ";".join(str(group.order // s) for s in sizes),
            )
        )
    return CommandResult(
        semantic={
            "lx": geom.lx,
            "ly": geom.ly,
            "nexc": nexc,
            "transpose": transpose,
        },
        columns=("n_exc", "n_classes", "class_sizes", "stabilizer_orders"),
        rows=rows,
    )


def _cmd_frustration_scan(args, cfg, seed: int) -> CommandResult:
    lx = _req(args, cfg, "lx", _int)
    if lx < 1:
        raise UsageError(f"array dimensions must be >= 1, got lx={lx}")
    das = _nonempty(_req(args, cfg, "delta_a_ratios", _floats), "delta_a_ratios")
    etas = _nonempty(_req(args, cfg, "etas", _floats), "etas")
    ly_ratios = _nonempty(_req(args, cfg, "ly_ratios", _floats), "ly_ratios")
    omega = _opt(args, cfg, "omega", _float, default=1.0)
    q_min = _opt(args, cfg, "qmin", _float, default=frustration.QUALITY_MIN)
    _opt(args, cfg, "workers", _int)  # accepted no-op: the scan is serial
    scan = frustration.region_scan(
        lx, das, etas, ly_ratios, omega_at=omega, q_min=q_min
    )
    rows = [
        (r.eta, r.ly_over_lx, r.delta_a_over_omega, r.r, r.q, r.valid) for r in scan
    ]
    return CommandResult(
        semantic={
            "lx": lx,
            "delta_a_ratios": das,
            "etas": etas,
            "ly_ratios": ly_ratios,
            "omega_at": omega,
            "qmin": q_min,
        },
        columns=("eta", "ly_over_lx", "delta_a_over_omega", "R", "Q", "valid"),
        rows=rows,
    )


_HANDLERS = {
    "derive-params": _cmd_derive_params,
    "spin-ed": _cmd_spin_ed,
    "jc-ed": _cmd_jc_ed,
    "crossover": _cmd_crossover,
    "excitation-curve": _cmd_excitation_curve,
    "correlations": _cmd_correlations,
    "analytic-1d": _cmd_analytic_1d,
    "meanfield": _cmd_meanfield,
    "polya": _cmd_polya,
    "frustration-scan": _cmd_frustration_scan,
}


# ---------------------------------------------------------------------------
# argument registration


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.add_argument("--sidecar", help="metadata JSON path (default: OUT.json)")
    p.add_argument("--units", choices=("omega", "raw"))
    p.add_argument("--seed", help="eigensolver start-vector seed")


def _add_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lx")
    p.add_argument("--ly")


def _add_level(p: argparse.ArgumentParser, include_spin: bool = True) -> None:
    p.add_argument("--omega", help="two-level splitting omega_at")
    p.add_argument("--g", help="JC coupling magnitude (JC level)")
    p.add_argument("--delta-a")
    p.add_argument("--delta-b")
    p.add_argument("--eta", help="lambda_b / lambda_a (alternative to --delta-b)")
    p.add_argument("--g0", help="bare photon coupling (drive level)")
    p.add_argument("--rabi", help="drive Rabi frequency (drive level)")
    p.add_argument("--delta-e")
    if include_spin:
        p.add_argument("--lambda-a", help="row coupling (spin level)")
        p.add_argument("--lambda-b")


_K_HELP = "accepted and ignored (each sector solve returns its whole ground cluster)"


def _build_parser() -> _Parser:
    parser = _Parser(prog="cavityspin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("derive-params", help="drive -> JC -> spin parameter chain")
    _add_common(p)
    _add_level(p, include_spin=False)

    p = sub.add_parser("spin-ed", help="fixed-sector spin-model ground states")
    _add_common(p)
    _add_geometry(p)
    _add_level(p)
    p.add_argument("--nexc", help="comma-separated excitation sectors")
    p.add_argument("--shift", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--k", help=_K_HELP)

    p = sub.add_parser("jc-ed", help="JC lattice ground states per total-excitation sector")
    _add_common(p)
    _add_geometry(p)
    _add_level(p, include_spin=False)
    p.add_argument("--ntotal", help="comma-separated sectors (omit to scan)")
    p.add_argument("--nmax", help="per-mode photon cutoff")

    p = sub.add_parser("crossover", help="JC vs spin-model critical coupling")
    _add_common(p)
    _add_geometry(p)
    p.add_argument("--omega")
    p.add_argument("--delta-ratios", help="comma-separated delta/omega values")
    p.add_argument("--sectors")
    p.add_argument("--tol", help="accepted and ignored (no search tolerance)")
    p.add_argument("--nmax")

    p = sub.add_parser("excitation-curve", help="ground-sector staircase vs coupling")
    _add_common(p)
    _add_geometry(p)
    p.add_argument("--omega")
    p.add_argument("--lambdas", help="comma-separated coupling grid")
    p.add_argument("--shift", action=argparse.BooleanOptionalAction, default=None)

    p = sub.add_parser("correlations", help="shared-line vs unshared pair correlations")
    _add_common(p)
    _add_geometry(p)
    _add_level(p)
    p.add_argument("--nexc")
    p.add_argument("--jc-delta-ratio", help="also run the JC model at this delta/omega")
    p.add_argument("--k", help=_K_HELP)

    p = sub.add_parser("analytic-1d", help="single-mode closed-form phase classification")
    _add_common(p)
    p.add_argument("--omega")
    p.add_argument("--lam")
    p.add_argument("--delta")
    p.add_argument("--n", help="spin count (adds closed-form ground-state columns)")

    p = sub.add_parser("meanfield", help="coherent-state mean-field observables")
    _add_common(p)
    _add_geometry(p)
    p.add_argument("--delta")
    p.add_argument("--omega")
    p.add_argument("--g", help="comma-separated coupling grid (omit for g_c only)")

    p = sub.add_parser("polya", help="orbit counts and class tables")
    _add_common(p)
    _add_geometry(p)
    p.add_argument("--nexc")
    p.add_argument("--transpose", action=argparse.BooleanOptionalAction, default=None)

    p = sub.add_parser("frustration-scan", help="validity map of the mixed regime")
    _add_common(p)
    p.add_argument("--lx")
    p.add_argument("--delta-a-ratios")
    p.add_argument("--etas")
    p.add_argument("--ly-ratios")
    p.add_argument("--omega")
    p.add_argument("--qmin")
    p.add_argument("--workers", help="accepted and ignored (the scan is serial)")

    return parser


def _load_config(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    cfg = {str(k).replace("-", "_"): v for k, v in raw.items()}
    declared = cfg.pop("command", None)
    if declared is not None and declared != args.command:
        raise UsageError(
            f"config file is for {declared!r}, but {args.command!r} was invoked"
        )
    return cfg


def _scale_rows(result: CommandResult, units: str) -> list[tuple]:
    if units == "raw" or result.omega_unit is None or not result.energy_columns:
        return result.rows
    w = result.omega_unit
    if w == 0.0:
        raise UsageError("omega_at = 0: energies have no omega units; use --units raw")
    idx = {result.columns.index(c) for c in result.energy_columns}
    scaled = []
    for row in result.rows:
        scaled.append(
            tuple(
                float(v) / w if i in idx and isinstance(v, (int, float)) else v
                for i, v in enumerate(row)
            )
        )
    return scaled


def _emit_error(kind: str, exc: BaseException) -> None:
    payload = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        units = _opt(args, cfg, "units", str, default="omega")
        if units not in ("omega", "raw"):
            raise UsageError("--units must be 'omega' or 'raw'")
        seed = _at_least(_opt(args, cfg, "seed", _int, default=0), 0, "seed")
        handler = _HANDLERS[args.command]
        start = time.monotonic()
        result = handler(args, cfg, seed)
        wall = time.monotonic() - start
        semantic = dict(result.semantic)
        semantic["command"] = args.command
        semantic["units"] = units
        semantic["seed"] = seed
        table = tableio.ResultTable(
            columns=result.columns,
            rows=_scale_rows(result, units),
            metadata=tableio.make_metadata(args.command, semantic, wall),
        )
        out = _opt(args, cfg, "out", str)
        if out is None:
            sys.stdout.write(tableio.to_csv(table))
        else:
            tableio.write_outputs(table, out, _opt(args, cfg, "sidecar", str))
        return 0
    except UsageError as exc:
        _emit_error("usage", exc)
        return 2
    except OSError as exc:
        _emit_error("io", exc)
        return 2
    except (
        RegimeError,
        ResonanceError,
        ValueError,
        ArithmeticError,
        RuntimeError,
        MemoryError,
    ) as exc:
        _emit_error("compute", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
