"""Result containers and text-table rendering for the harness.

Every experiment runner returns a :class:`FigureData`: the figure/table
identifier, column names, data rows, and free-form notes (normalization
basis, scale caveats).  ``render()`` produces the aligned text block that
the benchmarks print and EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[Sequence[Cell]]) -> str:
    """Render an aligned text table."""
    rendered = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(columns[i])), *(len(r[i]) for r in rendered))
        if rendered
        else len(str(columns[i]))
        for i in range(len(columns))
    ]
    lines = [
        "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for row in rendered:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(row)))
        )
    return "\n".join(lines)


@dataclass
class FigureData:
    """One reproduced figure or table."""

    figure: str  # e.g. "Figure 7a"
    title: str
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Cell]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def by_key(self, key_column: str) -> Dict[Cell, List[Cell]]:
        index = self.columns.index(key_column)
        return {row[index]: row for row in self.rows}

    def render(self) -> str:
        header = f"== {self.figure}: {self.title} =="
        body = format_table(self.columns, self.rows)
        notes = "\n".join(f"  note: {n}" for n in self.notes)
        return "\n".join(part for part in (header, body, notes) if part)


def fault_tolerance_figure(system) -> FigureData:
    """Fault-tolerance counters of one system as a renderable table.

    Combines the device injector's :class:`~repro.faults.FaultStats`
    (power cuts, torn writes, read faults) with the memory port's retry
    accounting — the observable cost of every fault the run absorbed.
    On a plain (fault-free) device only the port rows appear.
    """
    fig = FigureData(
        "Fault report",
        f"fault-tolerance counters ({system.scheme.name})",
        ["Counter", "Value"],
    )
    fault_stats = getattr(system.device, "fault_stats", None)
    if fault_stats is not None:
        fig.add_row("power cuts", fault_stats.power_cuts)
        fig.add_row("writes lost (power out)", fault_stats.writes_lost)
        fig.add_row("torn writes", fault_stats.torn_writes)
        fig.add_row("torn words applied", fault_stats.torn_words_applied)
        fig.add_row("torn words dropped", fault_stats.torn_words_dropped)
        fig.add_row(
            "transient read faults", fault_stats.transient_read_faults
        )
    else:
        fig.add_note("fault injection disabled (plain device)")
    port = system.scheme.port.stats
    fig.add_row("read retries", port.read_retries)
    fig.add_row("retry wait (ns)", port.retry_wait_ns)
    fig.add_row("reads failed", port.reads_failed)
    return fig


def telemetry_figure(summary: Dict) -> FigureData:
    """Render a :meth:`Telemetry.summary` dict as a latency report.

    One row per histogram (commit/load/store/GC-pause latencies and
    anything else the run recorded); events, counters, and the per-epoch
    series are compressed into notes.  Percentiles are log2-bucket upper
    bounds — see :mod:`repro.telemetry.metrics`.
    """
    fig = FigureData(
        "Telemetry",
        "latency histograms (simulated ns; log2-bucket upper bounds)",
        ["Histogram", "count", "mean", "p50", "p95", "p99", "max"],
    )
    for name in sorted(summary.get("histograms", {})):
        h = summary["histograms"][name]
        fig.add_row(
            name,
            h["count"],
            h["mean"],
            h["p50"],
            h["p95"],
            h["p99"],
            h["max"],
        )
    events = summary.get("events", {})
    if events:
        by_kind = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(events.get("by_kind", {}).items())
        )
        fig.add_note(
            f"events: total={events.get('total', 0)}"
            f" dropped={events.get('dropped', 0)}"
            + (f" ({by_kind})" if by_kind else "")
        )
    counters = summary.get("counters", {})
    if counters:
        fig.add_note(
            "counters: "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(counters.items())
            )
        )
    series = summary.get("series", {})
    commits = series.get("commits")
    if commits:
        fig.add_note(
            f"commit series: {commits['epochs']} epochs of"
            f" {commits['epoch_ns'] / 1e6:.3f} ms,"
            f" {commits['total']:.0f} commits"
        )
    traffic = series.get("write_bytes")
    if traffic:
        fig.add_note(
            f"write traffic: {traffic['total']:.0f} B over"
            f" {traffic['epochs']} epochs"
        )
    return fig
