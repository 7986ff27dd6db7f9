"""Output checks for every benchmark command, against independent references.

The references are closed forms and exact counts written out here, not
calls into ``cavityspin``: sector dimensions C(N, n) and photon composition
counts, the one-excitation spectrum, the spin crossing
-omega/(2(Lx+Ly)), the uniform-background mode roots of the frustrated
regime, Polya class sizes, the mean-field formulas and the single-mode
level formula.  Where no closed form exists (large sectors) the energy is
held between a variational upper bound and a Gershgorin lower bound, and
the Perron-Frobenius theorem fixes the multiplet of an all-negative
coupling to one state.  Sectors of at most ``EXACT_DIM_MAX`` states are
diagonalized here from a matrix built independently of the package.

Every check returns a list of ``(key, message)`` failures; an empty list
means the output passed.  A check never raises: a malformed output becomes
a failure with key ``"parse"``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from math import comb, factorial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

Failure = tuple[str, str]

EXACT_DIM_MAX = 200  # sectors up to this size are diagonalized here, densely

_INT_RE = re.compile(r"[+-]?\d+\Z")

ONE_D_OUTCOMES = {"no-transition", "photon-divergence", "spin-transition-series"}


def parse_cell(text: str):
    if text == "":
        return None
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = list(csv.reader(io.StringIO(text)))
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0]
    rows = []
    for line in lines[1:]:
        if len(line) != len(header):
            raise ValueError(f"row width {len(line)} != header width {len(header)}")
        rows.append({c: parse_cell(v) for c, v in zip(header, line)})
    return header, rows


def close(a, b, rtol: float, atol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= atol + rtol * max(abs(float(a)), abs(float(b)))


class _Report:
    def __init__(self) -> None:
        self.failures: list[Failure] = []

    def expect(self, ok: bool, key: str, message: str) -> bool:
        if not ok:
            self.failures.append((key, message))
        return ok

    def near(self, key: str, label: str, got, want, rtol: float, atol: float = 0.0):
        return self.expect(
            close(got, want, rtol, atol), key, f"{label}: got {got!r}, reference {want!r}"
        )


# ---------------------------------------------------------------------------
# independent references


def one_exc_levels(lx: int, ly: int, lam_a: float, lam_b: float) -> list[tuple[float, int]]:
    """Hop spectrum of one excitation: (value, multiplicity), ascending.

    The hop matrix is 2 lam_a (J_x - 1) (x) 1 + 1 (x) 2 lam_b (J_y - 1), with
    J_L the all-ones L x L matrix (eigenvalues L, once, and 0, L-1 times).
    """
    table_a = [(-1.0, lx - 1), (lx - 1.0, 1)]
    table_b = [(-1.0, ly - 1), (ly - 1.0, 1)]
    levels: dict[float, int] = {}
    for ea, ma in table_a:
        for eb, mb in table_b:
            if ma and mb:
                v = 2.0 * lam_a * ea + 2.0 * lam_b * eb
                levels[v] = levels.get(v, 0) + ma * mb
    return sorted(levels.items())


def spin_diag(p: dict, n: int) -> float:
    n_sites = p["lx"] * p["ly"]
    coeff = p["omega"] / 2.0
    if p.get("shift", True):
        coeff += p["lambda_a"] + p["lambda_b"]
    return coeff * (2 * n - n_sites)


def hop_bounds(p: dict, n: int) -> tuple[float, float]:
    """(lower, upper) bounds on the lowest hop eigenvalue of a sector.

    Upper: Rayleigh quotient of the uniform vector; each line pair is
    switched by 2 C(N-2, n-1) of the C(N, n) states.  Lower: Gershgorin,
    with at most floor(L^2/4) hops along a line of length L.
    """
    lx, ly = p["lx"], p["ly"]
    n_sites = lx * ly
    amp_a, amp_b = 2.0 * p["lambda_a"], 2.0 * p["lambda_b"]
    row_pairs, col_pairs = ly * comb(lx, 2), lx * comb(ly, 2)
    if n in (0, n_sites):
        return 0.0, 0.0
    share = 2.0 * comb(n_sites - 2, n - 1) / comb(n_sites, n)
    upper = share * (amp_a * row_pairs + amp_b * col_pairs)
    lower = -(abs(amp_a) * ly * (lx * lx // 4) + abs(amp_b) * lx * (ly * ly // 4))
    return lower, upper


def exact_hop_ground(lx: int, ly: int, n: int, lam_a: float, lam_b: float) -> tuple[float, int]:
    """Lowest hop eigenvalue of a small sector and its multiplicity.

    The matrix is built here from the line structure alone: a raised spin
    moves between two sites of one row (amplitude 2 lam_a) or one column
    (2 lam_b).  Site (r, c) is bit r Lx + c.
    """
    states = [m for m in range(1 << (lx * ly)) if bin(m).count("1") == n]
    index = {m: i for i, m in enumerate(states)}
    lines = [([r * lx + c for c in range(lx)], 2.0 * lam_a) for r in range(ly)]
    lines += [([r * lx + c for r in range(ly)], 2.0 * lam_b) for c in range(lx)]
    h = np.zeros((len(states), len(states)))
    for i, m in enumerate(states):
        for sites, amp in lines:
            for s, t in itertools.combinations(sites, 2):
                if (m >> s & 1) != (m >> t & 1):
                    h[i, index[m ^ (1 << s | 1 << t)]] += amp
    vals = np.linalg.eigvalsh(h)
    low = float(vals[0])
    return low, int(np.sum(vals <= low + 1e-8 * max(1.0, abs(low))))


def compositions(total: int, parts: int, cap: int) -> int:
    """Ways to put ``total`` quanta into ``parts`` modes of capacity ``cap``."""
    ways = [1] + [0] * total
    for _ in range(parts):
        nxt = [0] * (total + 1)
        for t in range(total + 1):
            nxt[t] = sum(ways[t - q] for q in range(0, min(cap, t) + 1))
        ways = nxt
    return ways[total]


def jc_dim(lx: int, ly: int, n_total: int) -> int:
    n_sites = lx * ly
    return sum(
        comb(n_sites, k) * compositions(n_total - k, lx + ly, n_total)
        for k in range(min(n_sites, n_total) + 1)
    )


def jc_min_diag(p: dict, n_total: int) -> float:
    """Smallest diagonal entry of a lattice-model sector (a variational bound)."""
    n_sites = p["lx"] * p["ly"]
    photon = min(p["delta_a"], p["delta_b"])
    return min(
        p["omega"] / 2.0 * (2 * k - n_sites) + (n_total - k) * photon
        for k in range(min(n_sites, n_total) + 1)
    )


def frustration_reference(lx: int, ly: int, da: float, eta: float, omega: float):
    """(R, Q) of one scan point from the closed-form roots, or None for an error row.

    On the s^z = -1 background the row branch Delta_a - 2 lam Lx vanishes at
    Delta_a / (2 Lx) (present when Ly > 1); the column branch only grows for
    eta < 0; the mixed pair vanishes where the 2x2 determinant
    (Delta_a - 2 lam Lx)(Delta_b - 2 eta lam Ly) - Lx Ly lam^2 (1 + eta)^2
    has its single positive root.
    """
    if ly < 1 or da >= omega:
        return None
    db = (da - omega) / eta + omega
    if min(da, db) <= 0.0:
        return None
    a = -lx * ly * (1.0 - eta) ** 2
    b = -2.0 * (da * eta * ly + db * lx)
    c = da * db
    disc = math.sqrt(b * b - 4.0 * a * c)
    roots = [r for r in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)) if r > 0.0]
    if ly > 1:
        roots.append(da / (2.0 * lx))
    lam_spin = -omega / (2.0 * eta * ly)
    g_spin = math.sqrt(-2.0 * lam_spin * (da - omega))
    q = min(abs(da - omega), abs(db - omega)) / g_spin
    r = min(roots) / lam_spin if roots else None
    return r, q


def meanfield_reference(lx: int, ly: int, g: float, delta: float, omega: float):
    g_c = math.sqrt(delta * omega * (lx + ly) / (4.0 * lx * ly))
    if g <= g_c:
        return g_c, 0.0, 0.0, -1.0, "false"
    alpha_sq = (lx * ly * g / (delta * (lx + ly))) ** 2 - (omega / (4.0 * g)) ** 2
    n_exc = 0.5 * lx * ly * (1.0 - (g_c / g) ** 2)
    root = math.sqrt((omega / 2.0) ** 2 + 4.0 * g * g * alpha_sq)
    gamma = (omega / 2.0 - root) / (2.0 * g * math.sqrt(alpha_sq))
    sigma_z = (gamma * gamma - 1.0) / (gamma * gamma + 1.0)
    return g_c, alpha_sq, n_exc, sigma_z, "true"


def one_d_ground(n_spins: int, delta: float, omega: float, lam: float):
    """Lowest E(J=N/2, m, n=0) = (omega) m + 2 lam [J(J+1) - m(m-1)] over m."""
    j = n_spins / 2.0
    best = None
    for i in range(n_spins + 1):
        m = -j + i
        e = omega * m + 2.0 * lam * (j * (j + 1.0) - m * (m - 1.0))
        if best is None or e < best[1]:
            best = (m, e)
    return best


# ---------------------------------------------------------------------------
# per-command checks; each gets the parsed table and the generated params


def _columns(rep: _Report, header: list[str], want: tuple[str, ...]) -> bool:
    return rep.expect(tuple(header) == want, "columns", f"columns {header} != {list(want)}")


def check_spin_ed(header, rows, p) -> list[Failure]:
    rep = _Report()
    if not _columns(rep, header, ("n_exc", "dim", "energy", "multiplet_size")):
        return rep.failures
    if not rep.expect(len(rows) == len(p["nexc"]), "rows", f"{len(rows)} rows"):
        return rep.failures
    lx, ly, w = p["lx"], p["ly"], p["omega"]
    n_sites = lx * ly
    negative = p["lambda_a"] < 0.0 and p["lambda_b"] < 0.0
    for row, n in zip(rows, p["nexc"]):
        rep.expect(row["n_exc"] == n, "n_exc", f"n_exc {row['n_exc']} != {n}")
        rep.expect(row["dim"] == comb(n_sites, n), "dim", f"n={n}: dim {row['dim']}")
        diag = spin_diag(p, n)
        energy = row["energy"]
        if n in (0, n_sites):
            rep.near("energy", f"n={n} energy", energy, diag / w, 1e-12, 1e-12)
        elif n == 1:
            level, mult = one_exc_levels(lx, ly, p["lambda_a"], p["lambda_b"])[0]
            rep.near("energy", "n=1 energy", energy, (diag + level) / w, 1e-9, 1e-12)
            rep.expect(
                row["multiplet_size"] == mult,
                "multiplet_size",
                f"n=1 multiplet_size {row['multiplet_size']}, closed-form level is {mult}-fold",
            )
        elif comb(n_sites, n) <= EXACT_DIM_MAX:
            level, mult = exact_hop_ground(lx, ly, n, p["lambda_a"], p["lambda_b"])
            rep.near("energy", f"n={n} energy", energy, (diag + level) / w, 1e-9, 1e-12)
            rep.expect(
                row["multiplet_size"] == mult,
                "multiplet_size",
                f"n={n} multiplet_size {row['multiplet_size']}, exact level is {mult}-fold",
            )
        else:
            lower, upper = hop_bounds(p, n)
            tol = 1e-9 * max(1.0, abs(energy))
            rep.expect(
                (diag + lower) / w - tol <= energy <= (diag + upper) / w + tol,
                "energy",
                f"n={n} energy {energy!r} outside [{(diag + lower) / w}, {(diag + upper) / w}]",
            )
        if negative and n != 1 and comb(n_sites, n) > EXACT_DIM_MAX:
            rep.expect(
                row["multiplet_size"] == 1,
                "multiplet_size",
                f"n={n}: all-negative couplings have a unique ground state, "
                f"got multiplet_size {row['multiplet_size']}",
            )
    return rep.failures


def check_correlations(header, rows, p) -> list[Failure]:
    rep = _Report()
    if not _columns(rep, header, ("model", "n_exc", "sigma_nn", "sigma_nnn", "ratio")):
        return rep.failures
    models = ["spin"] * len(p["nexc"])
    if p.get("jc_ratio") is not None:
        models += ["jc"] * len(p["nexc"])
    if not rep.expect(len(rows) == len(models), "rows", f"{len(rows)} rows"):
        return rep.failures
    n_sites = p["lx"] * p["ly"]
    spin_ratio = {}
    for row, model, n in zip(rows, models, p["nexc"] * 2):
        rep.expect(
            row["model"] == model and row["n_exc"] == n, "rows", f"row {row} out of order"
        )
        nn, nnn, ratio = row["sigma_nn"], row["sigma_nnn"], row["ratio"]
        # Perron-Frobenius: positive ground vector, so positive correlations;
        # Cauchy-Schwarz with symmetric occupations n/N bounds them above
        for label, v in (("sigma_nn", nn), ("sigma_nnn", nnn)):
            rep.expect(
                0.0 < v <= n / n_sites * (1 + 1e-9),
                "correlation",
                f"{model} n={n} {label} {v!r} outside (0, {n / n_sites}]",
            )
        rep.near("ratio", f"{model} n={n} ratio", ratio, nnn / nn, 1e-12)
        if model == "spin":
            spin_ratio[n] = ratio
        else:
            rep.near("ratio", f"jc vs spin ratio n={n}", ratio, spin_ratio[n], 0.02)
    return rep.failures


def check_jc_ed(header, rows, p) -> list[Failure]:
    rep = _Report()
    if not _columns(rep, header, ("n_total", "dim", "energy", "is_ground")):
        return rep.failures
    lx, ly, w = p["lx"], p["ly"], p["omega"]
    sectors = p["ntotal"] if p["ntotal"] is not None else list(range(len(rows)))
    if not rep.expect(
        len(rows) == len(sectors) and len(rows) >= 1, "rows", f"{len(rows)} rows"
    ):
        return rep.failures
    for row, n in zip(rows, sectors):
        rep.expect(row["n_total"] == n, "rows", f"n_total {row['n_total']} != {n}")
        rep.expect(row["dim"] == jc_dim(lx, ly, n), "dim", f"n={n}: dim {row['dim']}")
        bound = jc_min_diag(p, n) / w
        rep.expect(
            row["energy"] <= bound + 1e-9 * max(1.0, abs(bound)),
            "energy",
            f"n={n} energy {row['energy']!r} above the diagonal bound {bound!r}",
        )
        if n == 0:
            rep.near("energy", "vacuum energy", row["energy"], -lx * ly / 2.0, 1e-12)
    if p["ntotal"] is None:
        energies = [r["energy"] for r in rows]
        low = min(energies)
        first = next(
            i for i, e in enumerate(energies) if e <= low + 1e-8 * max(1.0, abs(low))
        )
        flags = ["true" if i == first else "false" for i in range(len(rows))]
        rep.expect(
            [r["is_ground"] for r in rows] == flags,
            "is_ground",
            f"is_ground flags {[r['is_ground'] for r in rows]} != {flags}",
        )
        rep.expect(first < len(rows) - 1, "is_ground", "scan ended at its minimum")
    return rep.failures


def check_crossover(header, rows, p) -> list[Failure]:
    rep = _Report()
    cols = (
        "delta_over_omega",
        "lambda_c_spin",
        "g_c_spin",
        "g_c_jc",
        "g_c_one_exc",
        "rel_diff",
    )
    if not _columns(rep, header, cols):
        return rep.failures
    if not rep.expect(len(rows) == len(p["ratios"]), "rows", f"{len(rows)} rows"):
        return rep.failures
    lines = p["lx"] + p["ly"]
    lam_c = -1.0 / (2.0 * lines)  # in units of omega
    for row, ratio in zip(rows, p["ratios"]):
        rep.near("rows", "delta_over_omega", row["delta_over_omega"], ratio, 1e-15)
        rep.near("lambda_c_spin", "lambda_c_spin", row["lambda_c_spin"], lam_c, 0.0, 1e-9)
        g_spin = math.sqrt((ratio - 1.0) / lines)
        rep.near("g_c_spin", "g_c_spin", row["g_c_spin"], g_spin, 1e-8)
        g_one = math.sqrt(ratio / lines)
        rep.near("g_c_one_exc", "g_c_one_exc", row["g_c_one_exc"], g_one, 1e-12)
        g_jc = row["g_c_jc"]
        rep.expect(
            0.0 < g_jc <= g_one + 1e-9,
            "g_c_jc",
            f"g_c_jc {g_jc!r} not in (0, g_c_one_exc {g_one!r}]",
        )
        rep.near(
            "rel_diff", "rel_diff", row["rel_diff"], abs(g_jc - row["g_c_spin"]) / row["g_c_spin"], 1e-9
        )
    return rep.failures


def check_excitation_curve(header, rows, p) -> list[Failure]:
    rep = _Report()
    if not _columns(rep, header, ("lambda", "n_exc", "energy")):
        return rep.failures
    if not rep.expect(len(rows) == len(p["lambdas"]), "rows", f"{len(rows)} rows"):
        return rep.failures
    lx, ly, w = p["lx"], p["ly"], p["omega"]
    n_sites = lx * ly
    small = all(comb(n_sites, k) <= EXACT_DIM_MAX for k in range(n_sites + 1))
    previous = 0
    for row, lam in zip(rows, p["lambdas"]):
        rep.near("rows", "lambda", row["lambda"], lam / w, 1e-15)
        n = row["n_exc"]
        rep.expect(
            previous <= n <= n_sites,
            "staircase",
            f"lambda {lam}: n_exc {n} after {previous} is not a monotone staircase",
        )
        previous = max(previous, n)
        q = {"lx": lx, "ly": ly, "omega": w, "lambda_a": lam, "lambda_b": lam}
        energy = row["energy"]
        if small:
            sectors = [
                (spin_diag(q, k) + exact_hop_ground(lx, ly, k, lam, lam)[0]) / w
                for k in range(n_sites + 1)
            ]
            best = min(sectors)
            rep.near("energy", f"lambda {lam} energy", energy, best, 1e-9, 1e-12)
            ties = [k for k, e in enumerate(sectors) if e <= best + 1e-9 * max(1.0, abs(best))]
            rep.expect(n in ties, "n_exc", f"lambda {lam}: n_exc {n}, exact ground sectors {ties}")
            continue
        e0 = spin_diag(q, 0) / w
        e1 = (spin_diag(q, 1) + one_exc_levels(lx, ly, lam, lam)[0][0]) / w
        tol = 1e-9 * max(1.0, abs(energy))
        rep.expect(
            energy <= min(e0, e1) + tol,
            "energy",
            f"lambda {lam}: energy {energy!r} above closed-form sectors 0/1 ({e0!r}, {e1!r})",
        )
        if n in (0, 1):
            rep.near("energy", f"lambda {lam} n={n} energy", energy, (e0, e1)[n], 1e-9, 1e-12)
    return rep.failures


def check_frustration_scan(header, rows, p) -> list[Failure]:
    rep = _Report()
    cols = ("eta", "ly_over_lx", "delta_a_over_omega", "R", "Q", "valid")
    if not _columns(rep, header, cols):
        return rep.failures
    grid = [
        (eta, ratio, da)
        for eta in p["etas"]
        for ratio in p["ly_ratios"]
        for da in p["delta_a_ratios"]
    ]
    if not rep.expect(len(rows) == len(grid), "rows", f"{len(rows)} rows"):
        return rep.failures
    lx, w = p["lx"], p["omega"]
    for row, (eta, ratio, da) in zip(rows, grid):
        where = f"eta={eta} ly/lx={ratio} da={da}"
        if not rep.expect(
            (row["eta"], row["ly_over_lx"], row["delta_a_over_omega"]) == (eta, ratio, da),
            "rows",
            f"row {row} out of grid order at {where}",
        ):
            continue
        ref = frustration_reference(lx, int(round(ratio * lx)), da * w, eta, w)
        if ref is None:
            rep.expect(row["valid"] == "error", "valid", f"{where}: expected an error row")
            continue
        r, q = ref
        rep.near("R", f"{where} R", row["R"], r, 1e-9)
        rep.near("Q", f"{where} Q", row["Q"], q, 1e-12)
        if r is not None and abs(r - 1.0) > 1e-8 and abs(q - 10.0) > 1e-8:
            want = "true" if (r > 1.0 and q >= 10.0) else "false"
            rep.expect(row["valid"] == want, "valid", f"{where}: valid {row['valid']} != {want}")
    return rep.failures


def check_polya(header, rows, p) -> list[Failure]:
    rep = _Report()
    cols = ("n_exc", "n_classes", "class_sizes", "stabilizer_orders")
    if not _columns(rep, header, cols):
        return rep.failures
    lx, ly = p["lx"], p["ly"]
    n_sites = lx * ly
    nexc = p["nexc"] if p["nexc"] is not None else list(range(n_sites + 1))
    order = factorial(lx) * factorial(ly) * (2 if lx == ly else 1)
    if not rep.expect(len(rows) == len(nexc), "rows", f"{len(rows)} rows"):
        return rep.failures
    for row, n in zip(rows, nexc):
        sizes = [int(s) for s in str(row["class_sizes"]).split(";")]
        stabs = [int(s) for s in str(row["stabilizer_orders"]).split(";")]
        rep.expect(row["n_exc"] == n, "rows", f"n_exc {row['n_exc']} != {n}")
        rep.expect(
            row["n_classes"] == len(sizes) == len(stabs),
            "n_classes",
            f"n={n}: n_classes {row['n_classes']} vs {len(sizes)} sizes, {len(stabs)} orders",
        )
        rep.expect(
            sum(sizes) == comb(n_sites, n),
            "class_sizes",
            f"n={n}: class sizes sum to {sum(sizes)}, not C({n_sites},{n})",
        )
        rep.expect(
            all(s * t == order for s, t in zip(sizes, stabs)),
            "stabilizer_orders",
            f"n={n}: size x stabilizer order != group order {order}",
        )
    return rep.failures


def check_derive_params(header, rows, p) -> list[Failure]:
    rep = _Report()
    cols = (
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
    )
    if not _columns(rep, header, cols) or not rep.expect(len(rows) == 1, "rows", "rows"):
        return rep.failures
    row = rows[0]
    w = -p["rabi"] ** 2 / p["delta_e"]
    g_signed = -p["g0"] * p["rabi"] / p["delta_e"]
    g = abs(g_signed)
    da = p["delta_a"]
    db = (da - w) / p["eta"] + w
    lam_a = -g * g / (2.0 * (da - w))
    lam_b = -g * g / (2.0 * (db - w))
    want = {
        "omega_at": 1.0,
        "g": g / w,
        "delta_a": da / w,
        "delta_b": db / w,
        "lambda_a": lam_a / w,
        "lambda_b": lam_b / w,
        "eta": p["eta"],
        "omega_at_prime": (w + 2.0 * (lam_a + lam_b)) / w,
        "eps_a": abs(g / (w - da)),
        "eps_b": abs(g / (w - db)),
    }
    for col, value in want.items():
        rep.near(col, col, row[col], value, 1e-10)
    rep.expect(row["g_sign"] == (-1 if g_signed < 0 else 1), "g_sign", f"g_sign {row['g_sign']}")
    frustration = "non-frustrated" if lam_a < 0 and lam_b < 0 else "frustrated"
    rep.expect(row["frustration"] == frustration, "frustration", f"{row['frustration']}")
    return rep.failures


def check_analytic_1d(header, rows, p) -> list[Failure]:
    rep = _Report()
    cols = (
        "omega_at",
        "lambda",
        "delta",
        "outcome",
        "m_ground",
        "n_exc",
        "photon_branch",
        "energy",
    )
    if not _columns(rep, header, cols):
        return rep.failures
    if not p:
        signs = {(r["omega_at"], r["lambda"], r["delta"]) for r in rows}
        rep.expect(len(rows) == 6 and len(signs) == 6, "rows", f"{len(rows)} sign-table rows")
        rep.expect(
            all(r["outcome"] in ONE_D_OUTCOMES for r in rows), "outcome", "unknown outcome"
        )
        return rep.failures
    if not rep.expect(len(rows) == 1, "rows", f"{len(rows)} rows"):
        return rep.failures
    row = rows[0]
    # omega > 0 with lambda < 0 (delta > omega) is the spin-transition series
    rep.expect(row["outcome"] == "spin-transition-series", "outcome", f"{row['outcome']}")
    m, e = one_d_ground(p["n"], p["delta"], p["omega"], p["lam"])
    rep.near("energy", "energy", row["energy"], e, 1e-12, 1e-12)
    rep.near("m_ground", "m_ground", row["m_ground"], m, 0.0, 1e-12)
    rep.near("n_exc", "n_exc", row["n_exc"], m + p["n"] / 2.0, 0.0, 1e-12)
    return rep.failures


def check_meanfield(header, rows, p) -> list[Failure]:
    rep = _Report()
    cols = ("g", "g_c", "alpha_sq", "n_exc", "sigma_z", "superradiant")
    if not _columns(rep, header, cols):
        return rep.failures
    if not rep.expect(len(rows) == len(p["g"]), "rows", f"{len(rows)} rows"):
        return rep.failures
    w = p["omega"]
    for row, g in zip(rows, p["g"]):
        g_c, alpha_sq, n_exc, sigma_z, flag = meanfield_reference(
            p["lx"], p["ly"], g, p["delta"], w
        )
        rep.near("g_c", "g_c", row["g_c"], g_c / w, 1e-12)
        rep.near("alpha_sq", f"g={g} alpha_sq", row["alpha_sq"], alpha_sq, 1e-9, 1e-12)
        rep.near("n_exc", f"g={g} n_exc", row["n_exc"], n_exc, 1e-9, 1e-12)
        rep.near("sigma_z", f"g={g} sigma_z", row["sigma_z"], sigma_z, 1e-9, 1e-12)
        rep.expect(row["superradiant"] == flag, "superradiant", f"g={g}: {row['superradiant']}")
    return rep.failures


CHECKS: dict[str, Callable[[list, list, dict], list[Failure]]] = {
    "spin_ed": check_spin_ed,
    "correlations": check_correlations,
    "jc_ed": check_jc_ed,
    "crossover": check_crossover,
    "excitation_curve": check_excitation_curve,
    "frustration_scan": check_frustration_scan,
    "polya": check_polya,
    "derive_params": check_derive_params,
    "analytic_1d": check_analytic_1d,
    "meanfield": check_meanfield,
}


def check_sidecar(path: Path, command: str, header: list[str], n_rows: int) -> list[Failure]:
    rep = _Report()
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [("sidecar", f"unreadable sidecar {path.name}: {exc}")]
    rep.expect(meta.get("command") == command, "sidecar", f"sidecar command {meta.get('command')!r}")
    rep.expect(meta.get("columns") == header, "sidecar", "sidecar columns differ from the CSV")
    rep.expect(meta.get("n_rows") == n_rows, "sidecar", f"sidecar n_rows {meta.get('n_rows')}")
    rep.expect(
        bool(re.fullmatch(r"[0-9a-f]{64}", str(meta.get("config_hash", "")))),
        "sidecar",
        "sidecar config_hash is not a SHA-256 hex digest",
    )
    return rep.failures


def check_stderr(exit_code: int, stderr: str) -> list[Failure]:
    """Exit 0 with silent stderr, or the documented one-line JSON error object."""
    if exit_code == 0 and stderr.strip() == "":
        return []
    if exit_code == 0:
        return [("stderr", f"unexpected stderr on success: {stderr.strip()[:200]}")]
    try:
        payload = json.loads(stderr)
        documented = set(payload) == {"error"} and {"kind", "type", "message"} <= set(
            payload["error"]
        )
    except (ValueError, TypeError):
        documented = False
    why = "documented JSON error" if documented else "undocumented stderr"
    return [("exit", f"exit code {exit_code} ({why}): {stderr.strip()[:200]}")]


def check_command(
    command, exit_code: int, stdout: str, stderr: str, work_dir: Optional[Path]
) -> list[Failure]:
    """All failures of one finished command: process, CSV, sidecar."""
    failures = check_stderr(exit_code, stderr)
    if failures:
        return failures
    try:
        if command.out is not None:
            csv_path = work_dir / command.out
            text = csv_path.read_text(encoding="utf-8")
        else:
            text = stdout
        header, rows = parse_csv(text)
        failures = CHECKS[command.check](header, rows, command.params)
        if command.out is not None:
            sidecar = csv_path.with_name(csv_path.name + ".json")
            failures += check_sidecar(sidecar, command.argv[0], header, len(rows))
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        failures = [("parse", f"{type(exc).__name__}: {exc}")]
    return failures
