"""Rectangular array geometry shared by every model in the package.

Sites live on an ``lx`` x ``ly`` grid.  Each of the ``ly`` rows is served by
one row mode and each of the ``lx`` columns by one column mode, so a site
couples to exactly two modes.  Sites are indexed ``s = col + lx * row`` with
``row in [0, ly)`` and ``col in [0, lx)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class ArrayGeometry:
    """An lx-by-ly array of two-level emitters on crossed mode lines."""

    lx: int
    ly: int

    def __post_init__(self) -> None:
        if self.lx < 1 or self.ly < 1:
            raise ValueError(f"array dimensions must be >= 1, got {self.lx}x{self.ly}")

    @property
    def n_sites(self) -> int:
        return self.lx * self.ly

    @property
    def n_modes(self) -> int:
        return self.lx + self.ly

    def site(self, row: int, col: int) -> int:
        if not (0 <= row < self.ly and 0 <= col < self.lx):
            raise ValueError(f"site ({row}, {col}) outside {self.lx}x{self.ly} array")
        return col + self.lx * row

    def row_col(self, site: int) -> tuple[int, int]:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site index {site} outside {self.lx}x{self.ly} array")
        return divmod(site, self.lx)

    def row_sites(self, row: int) -> list[int]:
        return [self.site(row, col) for col in range(self.lx)]

    def col_sites(self, col: int) -> list[int]:
        return [self.site(row, col) for row in range(self.ly)]

    def line_pairs(self) -> Iterator[tuple[int, int, str]]:
        """Unordered site pairs sharing a row or a column, each pair once."""
        for row in range(self.ly):
            sites = self.row_sites(row)
            for a in range(self.lx):
                for b in range(a + 1, self.lx):
                    yield sites[a], sites[b], "row"
        for col in range(self.lx):
            sites = self.col_sites(col)
            for a in range(self.ly):
                for b in range(a + 1, self.ly):
                    yield sites[a], sites[b], "col"

    def transpose(self) -> "ArrayGeometry":
        return ArrayGeometry(lx=self.ly, ly=self.lx)
