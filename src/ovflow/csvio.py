"""The one CSV format every output file is written in.

Comma-separated, ``\\n`` line endings, a header row, and every float with 17
significant digits so that parsing a cell back gives the same double.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

__all__ = ["write_csv"]


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write header and rows to path; float cells (numpy float64 included)
    become ``f"{v:.17g}"``, every other cell goes to csv as it is."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
