"""The one CSV format every output file is written in.

Comma-separated, ``\\n`` line endings, a header row, and every float with 17
significant digits so that parsing a cell back gives the same double.

Rows of mixed cells go through the csv module. A table that is all floats
is passed as one 2-D array instead and written in chunks of rows, each
chunk formatted by a single ``%`` and streamed to the file, so no row or
cell is formatted on its own; ``'%.17g' % x`` is ``f"{x:.17g}"`` for every
double, and neither ever needs csv's quoting.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = ["write_csv"]

# cells formatted per % call: small enough to keep the formatted text of a
# chunk far below the size of a recording, large enough that the call
# overhead does not matter
_CHUNK_CELLS = 1024


def write_csv(
    path: str, header: Sequence[str], rows: Union[Iterable[Sequence], np.ndarray], blank: Sequence[int] = ()
) -> None:
    """Write header and rows to path; float cells (numpy float64 included)
    become ``f"{v:.17g}"``, every other cell goes to csv as it is.

    rows may instead be a 2-D float array. Its columns fill the header's
    columns in order, skipping the positions listed in blank, whose cells
    are left empty; the file is the one the csv route writes for the same
    rows with "" in those places."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if not isinstance(rows, np.ndarray):
            writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
            return
        line = ",".join("" if j in blank else "%.17g" for j in range(len(header))) + "\n"
        step = max(1, _CHUNK_CELLS // max(1, rows.shape[1]))
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            handle.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
