"""In-process tracing of the cavityspin layers, installed from outside.

:class:`Tracer` keeps spans (name, start, end, parent span, command id) and
counters in memory.  :func:`instrument` wraps the layers' public functions
and puts each wrapper into every ``cavityspin`` namespace that binds the
original, because the CLI and the models import functions by name; it
counts ``SparseOperator.matvec`` through a class-level wrapper.  Nothing
under ``src/`` is modified, and everything is restored on exit.

Counts come from call arguments and return values: ``op.dim``, ``op.nnz``,
``SpectrumResult.method``, ``converged`` and the residual norms.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

# Per-layer metrics of the traced run: (name, unit, better).  BENCHMARK.json
# lists the same names; METRICS.md says which end-to-end metric and
# workload each should move.
PER_LAYER = (
    ("linalg.ground_state.self_s", "s", "lower"),
    ("linalg.ground_state.calls", "count", "lower"),
    ("linalg.dense_calls", "count", "lower"),
    ("linalg.lanczos_calls", "count", "lower"),
    ("linalg.matvecs", "count", "lower"),
    ("linalg.dim_max", "count", "lower"),
    ("linalg.dim_sum", "count", "lower"),
    ("linalg.unconverged", "count", "lower"),
    ("linalg.residual_max", "norm", "lower"),
    ("linalg.dense_bytes", "B", "lower"),
    ("linalg.matvec_bytes", "B", "lower"),
    ("basis.enumerate_masks.self_s", "s", "lower"),
    ("basis.states", "count", "lower"),
    ("spinmodel.build_sector_hamiltonian.self_s", "s", "lower"),
    ("spinmodel.nnz", "count", "lower"),
    ("spinmodel.sector_ground.self_s", "s", "lower"),
    ("spinmodel.correlation_ratio.self_s", "s", "lower"),
    ("spinmodel.excitation_curve.self_s", "s", "lower"),
    ("spinmodel.transition_couplings.self_s", "s", "lower"),
    ("spinmodel.excitation_curve.solves_per_point", "solves/point", "lower"),
    ("spinmodel.transition_couplings.solves_per_crossing", "solves/crossing", "lower"),
    ("jcmodel.jc_sector_ground.self_s", "s", "lower"),
    ("jcmodel.build_jc_hamiltonian.self_s", "s", "lower"),
    ("jcmodel.jc_correlation_ratio.self_s", "s", "lower"),
    ("jcmodel.jc_ground_state.self_s", "s", "lower"),
    ("jcmodel.superradiant_critical_g.self_s", "s", "lower"),
    ("jcmodel.superradiant_critical_g.solves_per_root", "solves/root", "lower"),
    ("frustration.region_scan.self_s", "s", "lower"),
    ("frustration.lambda_c_photon.self_s", "s", "lower"),
    ("frustration.photonic_spectrum.calls", "count", "lower"),
    ("frustration.lambda_c_photon.spectra_per_root", "spectra/root", "lower"),
    ("symmetry.build_group.self_s", "s", "lower"),
    ("symmetry.orbits.self_s", "s", "lower"),
    ("symmetry.orbits.states", "count", "lower"),
    ("symmetry.polya_count.self_s", "s", "lower"),
    ("io.to_csv.self_s", "s", "lower"),
    ("io.write_outputs.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "spinmodel.excitation_curve.solves_per_point": (
        "spinmodel.excitation_curve.solves",
        "spinmodel.excitation_curve.points",
    ),
    "spinmodel.transition_couplings.solves_per_crossing": (
        "spinmodel.transition_couplings.solves",
        "spinmodel.transition_couplings.crossings",
    ),
    "jcmodel.superradiant_critical_g.solves_per_root": (
        "jcmodel.superradiant_critical_g.solves",
        "jcmodel.superradiant_critical_g.roots",
    ),
    "frustration.lambda_c_photon.spectra_per_root": (
        "frustration.lambda_c_photon.spectra",
        "frustration.lambda_c_photon.roots",
    ),
}

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    command: Optional[str]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.command: Optional[str] = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.command)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = self.clock()

    def raise_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.id: s.end - s.start - covered(s, children.get(s.id, [])) for s in spans}


def covered(parent: Span, spans: list[Span]) -> float:
    """Length of the union of the given intervals, clipped to the parent's."""
    total = 0.0
    reach = parent.start
    for s in sorted(spans, key=lambda s: s.start):
        lo, hi = max(s.start, reach), min(s.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass (without the trace.* entries)."""
    out = {name: 0.0 for name, _, _ in PER_LAYER if not name.startswith("trace.")}
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        key = s.name + ".self_s"
        if key in out:
            out[key] += selfs[s.id]
    for key, value in tracer.counts.items():
        if key in out:
            out[key] = float(value)
    for key, value in tracer.maxima.items():
        out[key] = float(value)
    for key, (num, den) in RATIOS.items():
        out[key] = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
    return out


# ---------------------------------------------------------------------------
# hooks: (tracer, args, kwargs, result, counts before the call) -> None


def _csr_bytes(op) -> int:
    m = op.matrix
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def _on_ground_state(t: Tracer, args, kwargs, result, before) -> None:
    op = args[0] if args else kwargs["op"]
    t.counts["linalg.ground_state.calls"] += 1
    t.counts["linalg.dim_sum"] += op.dim
    t.raise_max("linalg.dim_max", op.dim)
    matvecs = t.counts["linalg.matvecs"] - before["linalg.matvecs"]
    t.counts["linalg.matvec_bytes"] += matvecs * _csr_bytes(op)
    if result.method == "dense":
        t.counts["linalg.dense_calls"] += 1
        t.counts["linalg.dense_bytes"] += 8 * op.dim * op.dim
    else:
        t.counts["linalg.lanczos_calls"] += 1
    if not result.converged:
        t.counts["linalg.unconverged"] += 1
    t.raise_max("linalg.residual_max", float(max(result.residual_norms, default=0.0)))


def _on_ground_state_error(t: Tracer, args, kwargs) -> None:
    t.counts["linalg.ground_state.calls"] += 1
    t.counts["linalg.unconverged"] += 1


def _solves(t: Tracer, before) -> int:
    return t.counts["linalg.ground_state.calls"] - before["linalg.ground_state.calls"]


def _on_enumerate_masks(t, args, kwargs, result, before) -> None:
    t.counts["basis.states"] += len(result)


def _on_build_sector(t, args, kwargs, result, before) -> None:
    t.counts["spinmodel.nnz"] += result.nnz


def _on_excitation_curve(t, args, kwargs, result, before) -> None:
    t.counts["spinmodel.excitation_curve.solves"] += _solves(t, before)
    t.counts["spinmodel.excitation_curve.points"] += len(result)


def _on_transition_couplings(t, args, kwargs, result, before) -> None:
    t.counts["spinmodel.transition_couplings.solves"] += _solves(t, before)
    t.counts["spinmodel.transition_couplings.crossings"] += len(result)


def _on_superradiant(t, args, kwargs, result, before) -> None:
    t.counts["jcmodel.superradiant_critical_g.solves"] += _solves(t, before)
    t.counts["jcmodel.superradiant_critical_g.roots"] += 1


def _on_lambda_c_photon(t, args, kwargs, result, before) -> None:
    spectra = "frustration.photonic_spectrum.calls"
    t.counts["frustration.lambda_c_photon.spectra"] += t.counts[spectra] - before[spectra]
    if result is not None:
        t.counts["frustration.lambda_c_photon.roots"] += 1


def _on_orbits(t, args, kwargs, result, before) -> None:
    t.counts["symmetry.orbits.states"] += sum(c.size for c in result)


# (module, function, hook on return, hook on exception); a None return hook
# still records the span
SPANNED = (
    ("cavityspin.linalg", "ground_state", _on_ground_state, _on_ground_state_error),
    ("cavityspin.basis", "enumerate_masks", _on_enumerate_masks, None),
    ("cavityspin.spinmodel", "build_sector_hamiltonian", _on_build_sector, None),
    ("cavityspin.spinmodel", "sector_ground", None, None),
    ("cavityspin.spinmodel", "correlation_ratio", None, None),
    ("cavityspin.spinmodel", "excitation_curve", _on_excitation_curve, None),
    ("cavityspin.spinmodel", "transition_couplings", _on_transition_couplings, None),
    ("cavityspin.jcmodel", "jc_sector_ground", None, None),
    ("cavityspin.jcmodel", "build_jc_hamiltonian", None, None),
    ("cavityspin.jcmodel", "jc_correlation_ratio", None, None),
    ("cavityspin.jcmodel", "jc_ground_state", None, None),
    ("cavityspin.jcmodel", "superradiant_critical_g", _on_superradiant, None),
    ("cavityspin.frustration", "region_scan", None, None),
    ("cavityspin.frustration", "lambda_c_photon", _on_lambda_c_photon, None),
    ("cavityspin.symmetry", "build_group", None, None),
    ("cavityspin.symmetry", "orbits", _on_orbits, None),
    ("cavityspin.symmetry", "polya_count", None, None),
    ("cavityspin.io", "to_csv", None, None),
    ("cavityspin.io", "write_outputs", None, None),
)

# called thousands of times per command: counted, not spanned
COUNTED = (("cavityspin.frustration", "photonic_spectrum"),)


def _span_wrapper(tracer: Tracer, name: str, fn, on_return, on_error):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            before = tracer.counts.copy() if on_return is not None else None
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error(tracer, args, kwargs)
                raise
            if on_return is not None:
                on_return(tracer, args, kwargs, result, before)
            return result

    return wrapper


def _count_wrapper(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _layer_name(module: str, function: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + function


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    import cavityspin.cli  # noqa: F401  (imports every layer module)

    replacements: list[tuple[object, str, object]] = []

    def install(original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cavityspin" and not mod_name.startswith("cavityspin."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    replacements.append((module, attr, original))
                    setattr(module, attr, wrapper)

    op_class = sys.modules["cavityspin.linalg"].SparseOperator
    matvec = op_class.matvec
    replacements.append((op_class, "matvec", matvec))
    op_class.matvec = _count_wrapper(tracer, "linalg.matvecs", matvec)
    try:
        for mod_name, fn_name, on_return, on_error in SPANNED:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = _span_wrapper(
                tracer, _layer_name(mod_name, fn_name), original, on_return, on_error
            )
            install(original, wrapper)
        for mod_name, fn_name in COUNTED:
            original = getattr(sys.modules[mod_name], fn_name)
            key = _layer_name(mod_name, fn_name) + ".calls"
            install(original, _count_wrapper(tracer, key, original))
        yield
    finally:
        for owner, attr, original in reversed(replacements):
            setattr(owner, attr, original)
