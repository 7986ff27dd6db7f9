"""Deterministic result tables: CSV/JSON emission, parsing, sidecar metadata.

CSV is the bulk format (LF endings, '.' decimal, ',' separator, 17
significant digits so floats round-trip exactly); the JSON sidecar carries
run metadata: artifact version, a hash of the semantic configuration, and
wall time.  NaN and infinities are forbidden in tables; absent values are
empty cells and out-of-regime points carry flag columns instead.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from dataclasses import dataclass, field
from io import StringIO
from typing import Any, Optional, Union

ARTIFACT_VERSION = "0.1.0"

Cell = Union[None, int, float, str]

_INT_RE = re.compile(r"[+-]?\d+\Z")


def format_cell(value: Any) -> str:
    """One CSV cell; floats at 17 significant digits, None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("booleans are ambiguous in CSV; use 'true'/'false' strings")
    # a numpy scalar exists only once numpy is imported: look it up, never import it
    np = sys.modules.get("numpy")
    if isinstance(value, int) or np is not None and isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, float) or np is not None and isinstance(value, np.floating):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError("NaN/inf forbidden in result tables; use a flag column")
        return format(v, ".17g")
    if isinstance(value, str):
        return value
    raise TypeError(f"unsupported cell type {type(value).__name__}")


def parse_cell(text: str) -> Cell:
    """Inverse of format_cell up to numeric type width (int reads back as int)."""
    if text == "":
        return None
    if _INT_RE.match(text):
        return int(text)
    try:
        v = float(text)
    except ValueError:
        return text
    if not math.isfinite(v):
        raise ValueError(f"non-finite numeric cell {text!r}")
    return v


@dataclass
class ResultTable:
    """Schema-fixed rows of numeric/flag cells plus out-of-band metadata.

    Metadata never participates in equality: round-tripping through CSV
    must give back an equal table even though the metadata is not in the CSV.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        self.rows = [tuple(r) for r in self.rows]
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def to_csv(table: ResultTable) -> str:
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()


def parse_csv(text: str) -> ResultTable:
    reader = csv.reader(StringIO(text))
    lines = list(reader)
    if not lines:
        raise ValueError("empty CSV: header row required")
    columns = tuple(lines[0])
    rows = [tuple(parse_cell(cell) for cell in line) for line in lines[1:]]
    return ResultTable(columns=columns, rows=rows)


def to_json(table: ResultTable) -> str:
    """Schema-mirroring JSON body (columns, rows, metadata)."""
    for row in table.rows:
        for v in row:
            format_cell(v)  # same finiteness/type rules as CSV
    payload = {
        "columns": list(table.columns),
        "rows": [list(r) for r in table.rows],
        "metadata": table.metadata,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON form of the semantic configuration."""
    import hashlib  # here: a stdout run hashes nothing, and hashlib loads OpenSSL

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_metadata(
    command: str, config: dict, wall_time_s: Optional[float] = None
) -> dict:
    meta = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
    }
    if wall_time_s is not None:
        meta["wall_time_s"] = wall_time_s
    return meta


def write_outputs(
    table: ResultTable, csv_path: str, sidecar_path: Optional[str] = None
) -> None:
    """Write the CSV and its JSON sidecar (path defaults to csv_path + '.json')."""
    if sidecar_path is None:
        sidecar_path = csv_path + ".json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv(table))
    sidecar = dict(table.metadata)
    sidecar["columns"] = list(table.columns)
    sidecar["n_rows"] = table.n_rows
    with open(sidecar_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False) + "\n")
