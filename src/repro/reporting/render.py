"""Renderers: tables, ASCII/matplotlib figures, and report documents.

This module owns every presentation primitive in the repository -- the
monospace and Markdown table formatters and the ASCII plotters (which
``repro.experiments`` re-exports) -- plus the document renderers that
turn a built :class:`~repro.reporting.spec.Report` into
``EXPERIMENTS.md``, an HTML twin, per-sweep table files, and figure
files.

Determinism contract: renderers are pure functions of the built report.
No timestamps, hostnames, or execution statistics appear in any rendered
artifact, so a warm-store rebuild is byte-identical to the run that
populated the store.  (Execution stats live on ``report.stats`` for the
CLI to print; they are deliberately *not* part of the documents.)

Matplotlib is optional and opt-in (``write_report(..., mpl=True)``): when
the import fails the PNG pass is skipped silently, keeping the subsystem
dependency-free.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from .spec import Report

_BARS = " .:-=+*#%@"


def format_table(
    rows: Sequence[Dict[str, Any]],
    columns: Sequence[str],
    title: str = "",
) -> str:
    """Render dict rows as an aligned monospace table."""
    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    widths = {
        col: max(len(col), *(len(render(row.get(col, ""))) for row in rows))
        if rows
        else len(col)
        for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.rjust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(render(row.get(col, "")).rjust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def format_markdown(
    rows: Sequence[Dict[str, Any]], columns: Sequence[str]
) -> str:
    """Render dict rows as a GitHub-flavoured markdown table."""
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(str(row.get(col, "")) for col in columns) + " |"
        )
    return "\n".join(lines)


def format_html_table(
    rows: Sequence[Dict[str, Any]], columns: Sequence[str]
) -> str:
    """Render dict rows as an HTML ``<table>`` (values escaped)."""
    parts = ["<table>", "<tr>"]
    parts += [f"<th>{html.escape(col)}</th>" for col in columns]
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        parts += [
            f"<td>{html.escape(str(row.get(col, '')))}</td>" for col in columns
        ]
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def sparkline(values: Sequence[float]) -> str:
    """A one-line intensity plot of ``values`` (min..max normalized)."""
    if not values:
        return ""
    low = min(values)
    high = max(values)
    if high == low:
        return _BARS[5] * len(values)
    scale = (len(_BARS) - 1) / (high - low)
    return "".join(_BARS[int((v - low) * scale)] for v in values)


def ascii_plot(
    rows: List[Dict],
    x: str,
    y: str,
    width: int = 50,
    height: int = 10,
    title: str = "",
) -> str:
    """A scatter/step plot of ``rows[y]`` against ``rows[x]``.

    Both columns must be numeric.  X positions are scaled to ``width``
    columns, Y values to ``height`` rows; ties overwrite (last wins).
    """
    points = [(float(r[x]), float(r[y])) for r in rows]
    if not points:
        return title
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    grid = [[" "] * width for _ in range(height)]

    def col(value: float) -> int:
        if x_high == x_low:
            return 0
        return min(width - 1, int((value - x_low) / (x_high - x_low) * (width - 1)))

    def row(value: float) -> int:
        if y_high == y_low:
            return height - 1
        fraction = (value - y_low) / (y_high - y_low)
        return height - 1 - min(height - 1, int(fraction * (height - 1)))

    for x_value, y_value in points:
        grid[row(y_value)][col(x_value)] = "*"

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y} ^  (top={y_high:g}, bottom={y_low:g})")
    for grid_row in grid:
        lines.append("  |" + "".join(grid_row))
    lines.append("  +" + "-" * width + f"> {x} ({x_low:g}..{x_high:g})")
    return "\n".join(lines)


def _figure_rows(report: Report, figure) -> List[Dict[str, Any]]:
    """The rows a figure plots: its table's rows, through its filter."""
    rows = report.tables[figure.table]
    if figure.where is not None:
        rows = [row for row in rows if figure.where(row)]
    return rows


_CLAIM_COLUMNS = ["id", "paper claim", "measured", "status"]


def _claim_rows(report: Report) -> List[Dict[str, str]]:
    return [
        {
            "id": claim.claim_id,
            "paper claim": claim.statement,
            "measured": result.measured,
            "status": result.status,
        }
        for claim, result in report.claims
    ]


def render_markdown(report: Report) -> str:
    """Render a built report as one self-contained Markdown document.

    The document embeds the claim checklist, every table, and every
    figure (as fenced ASCII plots), so the committed ``EXPERIMENTS.md``
    stands alone without the per-table/per-figure side files.
    """
    spec = report.spec
    sections = [f"# {spec.title}", spec.preamble.strip()]
    sections.append("## Claim checklist")
    sections.append(format_markdown(_claim_rows(report), _CLAIM_COLUMNS))
    for table in spec.tables:
        rows = report.tables[table.name]
        sections.append(f"## {table.title}")
        if table.note:
            sections.append(table.note.strip())
        sections.append(format_markdown(rows, table.columns))
        for figure in spec.figures:
            if figure.table != table.name:
                continue
            plot = ascii_plot(_figure_rows(report, figure), figure.x,
                              figure.y, title=figure.title)
            sections.append(f"### Figure: {figure.title}")
            sections.append(f"```text\n{plot}\n```")
    if spec.regen_command:
        sections.append("## Reproducing this file")
        sections.append(
            "Every measured number above is a pure function of its "
            "scenario's content hash, served from the `ResultStore` when "
            "warm and executed through `CampaignRunner` when cold, so this "
            "file regenerates byte-for-byte:"
        )
        sections.append(f"```bash\n{spec.regen_command}\n```")
    return "\n\n".join(sections) + "\n"


def render_html(report: Report) -> str:
    """Render a built report as one self-contained HTML document."""
    spec = report.spec
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{html.escape(spec.title)}</title>",
        "<style>body{font-family:sans-serif;max-width:60em;margin:2em auto}"
        "table{border-collapse:collapse}td,th{border:1px solid #999;"
        "padding:0.2em 0.6em}pre{background:#f4f4f4;padding:0.6em}</style>",
        "</head><body>",
        f"<h1>{html.escape(spec.title)}</h1>",
        f"<p>{html.escape(spec.preamble.strip())}</p>",
        "<h2>Claim checklist</h2>",
        format_html_table(_claim_rows(report), _CLAIM_COLUMNS),
    ]
    for table in spec.tables:
        rows = report.tables[table.name]
        parts.append(f"<h2>{html.escape(table.title)}</h2>")
        if table.note:
            parts.append(f"<p>{html.escape(table.note.strip())}</p>")
        parts.append(format_html_table(rows, table.columns))
        for figure in spec.figures:
            if figure.table != table.name:
                continue
            plot = ascii_plot(_figure_rows(report, figure), figure.x,
                              figure.y, title=figure.title)
            parts.append(f"<h3>Figure: {html.escape(figure.title)}</h3>")
            parts.append(f"<pre>{html.escape(plot)}</pre>")
    if spec.regen_command:
        parts.append("<h2>Reproducing this file</h2>")
        parts.append(f"<pre>{html.escape(spec.regen_command)}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_report(
    report: Report,
    out_dir: Union[str, Path],
    fmt: str = "md",
    mpl: bool = False,
) -> List[Path]:
    """Write a built report's artifact set under ``out_dir``.

    Emits the main document (``EXPERIMENTS.md`` or ``EXPERIMENTS.html``),
    one Markdown file per table under ``tables/``, and one ASCII figure
    per :class:`FigureSpec` under ``figures/`` (plus PNG twins when
    ``mpl`` is set and matplotlib imports).  Returns the written paths.
    """
    if fmt not in ("md", "html"):
        raise ValueError(f"unknown report format {fmt!r}; use 'md' or 'html'")
    out = Path(out_dir)
    (out / "tables").mkdir(parents=True, exist_ok=True)
    (out / "figures").mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    if fmt == "md":
        main = out / "EXPERIMENTS.md"
        main.write_text(render_markdown(report), encoding="utf-8")
    else:
        main = out / "EXPERIMENTS.html"
        main.write_text(render_html(report), encoding="utf-8")
    written.append(main)

    for table in report.spec.tables:
        rows = report.tables[table.name]
        path = out / "tables" / f"{table.name}.md"
        path.write_text(
            f"# {table.title}\n\n"
            + format_markdown(rows, table.columns) + "\n",
            encoding="utf-8",
        )
        written.append(path)

    for figure in report.spec.figures:
        rows = _figure_rows(report, figure)
        path = out / "figures" / f"{figure.name}.txt"
        path.write_text(
            ascii_plot(rows, figure.x, figure.y, title=figure.title) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    if mpl:
        written.extend(_write_mpl_figures(report, out / "figures"))
    return written


def _write_mpl_figures(report: Report, fig_dir: Path) -> List[Path]:
    """Best-effort PNG figures; a missing matplotlib skips the pass."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except Exception:  # noqa: BLE001 - optional dependency, never fatal
        return []
    written: List[Path] = []
    for figure in report.spec.figures:
        rows = _figure_rows(report, figure)
        fig, axis = plt.subplots(figsize=(5, 3))
        axis.plot(
            [row[figure.x] for row in rows],
            [row[figure.y] for row in rows],
            marker="o",
        )
        axis.set_xlabel(figure.x)
        axis.set_ylabel(figure.y)
        axis.set_title(figure.title)
        fig.tight_layout()
        path = fig_dir / f"{figure.name}.png"
        fig.savefig(path)
        plt.close(fig)
        written.append(path)
    return written
