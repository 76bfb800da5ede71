"""Result tables: the rows/series the paper's figures report."""

import csv
import io
import json
import math
import warnings
from typing import Iterable, List, Sequence


def geomean(values: Iterable[float], strict: bool = False) -> float:
    """Geometric mean of the positive entries of ``values``.

    Non-positive (or NaN) entries cannot enter a geometric mean; they
    are dropped, but never silently: a zero-cycle bug upstream must not
    masquerade as a clean speedup summary.  Dropping emits a
    ``RuntimeWarning``; under ``strict=True`` it raises instead.
    """
    values = list(values)
    kept = [v for v in values if v > 0]
    if len(kept) != len(values):
        dropped = len(values) - len(kept)
        message = (f"geomean: dropped {dropped} non-positive value(s) "
                   f"out of {len(values)}")
        if strict:
            raise ValueError(message)
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    if not kept:
        return 0.0
    return math.exp(sum(math.log(v) for v in kept) / len(kept))


class Table:
    """A printable, CSV-able results table."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    @staticmethod
    def _fmt(cell) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000:
                return f"{cell:,.0f}"
            return f"{cell:.3g}"
        return str(cell)

    def format(self) -> str:
        cells = [[self._fmt(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(parts):
            return "  ".join(p.ljust(w) for p, w in zip(parts, widths))

        out = [self.title, "=" * len(self.title),
               line(self.headers), line(["-" * w for w in widths])]
        out.extend(line(row) for row in cells)
        return "\n".join(out)

    def to_csv(self) -> str:
        # Cells are written raw (``str(float)`` is shortest-repr in
        # Python 3), NOT through the lossy ``_fmt`` display formatting:
        # ``float(cell)`` round-trips bit-exactly.
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_dict(self) -> dict:
        """The JSON document: title, headers and rows."""
        return {"title": self.title, "headers": self.headers,
                "rows": self.rows}

    def to_json(self) -> str:
        """Machine-readable dump with full float precision.

        NaN cells are emitted as JSON ``NaN`` literals (the Python
        ``json`` dialect), which ``json.loads`` reads back unchanged.
        """
        return json.dumps(self.to_dict(), indent=1)

    def column(self, header: str) -> List:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def __repr__(self) -> str:
        return f"Table({self.title!r}, {len(self.rows)} rows)"
