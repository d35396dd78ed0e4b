"""Plain-text tables and series rendering for experiment output.

Every benchmark prints its table/figure data through these helpers so
the output format is uniform and diffable against EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..protocols.base import ProtocolResult


@dataclass
class Table:
    """A simple column-aligned text table.

    Parameters
    ----------
    title:
        Heading printed above the table.
    columns:
        Column names, in order.
    """

    title: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row; values are str()-ed, floats compacted."""
        if len(values) != len(self.columns):
            raise ConfigurationError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([_format_cell(value) for value in values])

    def render(self) -> str:
        """Render the table with aligned columns."""
        headers = [str(c) for c in self.columns]
        widths = [len(h) for h in headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, ""]
        lines.append(
            "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(c.rjust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table with a trailing blank line."""
        print(self.render())
        print()


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def protocol_results_table(
    results: Sequence["ProtocolResult"],
    true_n: int | None = None,
    title: str = "Protocol results",
) -> Table:
    """Tabulate protocol runs through their :meth:`summary` records.

    The single rendering path for
    :class:`~repro.protocols.base.ProtocolResult` sequences (the CLI
    summary and the comparison examples use it), built on the common
    :func:`~repro.protocols.base.result_summary` schema rather than
    attribute poking.  With ``true_n`` the table gains a
    relative-error column.
    """
    columns = ["protocol", "rounds", "slots", "estimate"]
    if true_n is not None:
        columns.append("error")
    table = Table(title, columns)
    for result in results:
        record = result.summary(true_n=true_n)
        row: list[object] = [
            record["protocol"],
            record["rounds"],
            record["total_slots"],
            record["estimate"],
        ]
        if true_n is not None:
            error = record["relative_error"]
            row.append(
                f"{abs(error):.2%}"  # type: ignore[arg-type]
                if error is not None
                else "-"
            )
        table.add_row(*row)
    return table


def format_series(
    label: str, xs: Iterable[object], ys: Iterable[object]
) -> str:
    """Render an (x, y) series as one aligned block (figure data)."""
    pairs = list(zip(xs, ys))
    lines = [f"series: {label}"]
    for x, y in pairs:
        lines.append(f"  {_format_cell(x):>12}  {_format_cell(y):>14}")
    return "\n".join(lines)


def ascii_histogram(
    values: Sequence[float],
    bins: int = 25,
    width: int = 50,
    lo: float | None = None,
    hi: float | None = None,
) -> str:
    """A quick ASCII histogram for distribution figures (Fig. 6)."""
    import numpy as np

    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise ConfigurationError("cannot histogram an empty series")
    lo = float(data.min()) if lo is None else lo
    hi = float(data.max()) if hi is None else hi
    counts, edges = np.histogram(data, bins=bins, range=(lo, hi))
    peak = max(int(counts.max()), 1)
    lines = []
    for count, left, right in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"{left:>12,.0f} - {right:>12,.0f} | {bar} {count}")
    return "\n".join(lines)
