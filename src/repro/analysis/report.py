"""Plain-text table/series rendering for benches and examples.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that formatting in one place (fixed-width ASCII
tables and simple aligned series dumps — nothing graphical, the repo is
headless).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


# ----------------------------------------------------------------------
# per-instance breakdowns (hierarchy API)
# ----------------------------------------------------------------------
def format_instance_breakdown(
    rows: Sequence[Sequence[object]],
    headers: Sequence[str],
    title: Optional[str] = None,
    indent_by_depth: bool = True,
) -> str:
    """Fixed-width per-instance table with tree indentation.

    ``rows`` lead with ``(path, depth, ...)``; the path column is
    indented two spaces per tree level so the table reads as the
    instance hierarchy, and the depth column itself is dropped.
    """
    rendered = []
    for row in rows:
        path, depth, *rest = row
        label = str(path) if path else "(testbench)"
        if indent_by_depth:
            label = "  " * int(depth) + (label.rsplit(".", 1)[-1]
                                         if path else label)
        rendered.append([label, *rest])
    return format_table(headers, rendered, title=title)


def design_summary_rows(design) -> list:
    """(path, depth, class, children, ports, nets) rows for a design.

    Works on described *and* elaborated designs (net counts are only
    available after elaboration); duck-typed on
    :class:`repro.design.Design`.
    """
    nets = design.nets_by_instance() if design.is_elaborated else {}
    rows = []
    for path, comp in design.top.walk():
        ports = ", ".join(
            f"{p.name}:{p.direction}" for p in comp.ports.values()
        )
        rows.append([
            path,
            comp.tree_depth,
            type(comp).__name__,
            len(comp.children),
            ports or "-",
            len(nets.get(path, ())) if nets else "-",
        ])
    return rows


def render_design_summary(design, title: Optional[str] = None) -> str:
    """The ``repro inspect`` table: one row per instance."""
    return format_instance_breakdown(
        design_summary_rows(design),
        ("instance", "class", "children", "ports", "nets"),
        title=title,
    )


def relative_error(measured: float, reference: float) -> float:
    """Signed relative error (measured - reference) / reference."""
    if reference == 0:
        raise ValueError("reference value must be non-zero")
    return (measured - reference) / reference
