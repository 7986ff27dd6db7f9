"""Ground-state physics of emitter arrays coupled to crossed cavity modes.

Rows and columns of a rectangular array each share one bosonic mode; in
the dispersive regime the photons mediate all-to-all couplings along every
line.  The package derives the effective parameters, diagonalizes both the
full lattice model and the fixed-sector spin model, evaluates the
single-mode closed forms and the coherent-state mean field, classifies
configurations by the array symmetry group, and maps out where the mixed
frustrated regime stays consistent.
"""

# public name -> the module that defines it; each is imported on first
# access (PEP 562), so importing the package, or running the CLI, executes
# no module it does not use
_EXPORTS = {
    "ArrayGeometry": "geometry",
    **dict.fromkeys(("ARTIFACT_VERSION", "ResultTable", "parse_csv", "to_csv", "to_json"), "io"),
    **dict.fromkeys(
        (
            "EffectiveJCParams",
            "NonUniformError",
            "PhysicalDriveParams",
            "RegimeError",
            "ResonanceError",
            "SpinCouplings",
            "analyze",
            "classify_regime",
            "delta_b_from_eta",
            "derive_effective_params",
            "derive_spin_couplings",
            "lambda_coupling",
            "validity_epsilon",
        ),
        "params",
    ),
}


def __getattr__(name: str):
    source = "ARTIFACT_VERSION" if name == "__version__" else name
    if source not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[source]}", __name__), source)
    globals()[name] = value
    return value


__all__ = [
    "ARTIFACT_VERSION",
    "ArrayGeometry",
    "EffectiveJCParams",
    "NonUniformError",
    "PhysicalDriveParams",
    "RegimeError",
    "ResonanceError",
    "ResultTable",
    "SpinCouplings",
    "analyze",
    "classify_regime",
    "delta_b_from_eta",
    "derive_effective_params",
    "derive_spin_couplings",
    "lambda_coupling",
    "parse_csv",
    "to_csv",
    "to_json",
    "validity_epsilon",
    "__version__",
]
