"""Series containers and rendering for the figure regeneration CLI."""

from __future__ import annotations

import io
from dataclasses import dataclass, field


@dataclass
class SeriesSet:
    """One experiment's output: named series over a shared x-axis."""

    experiment: str
    title: str
    x_label: str
    y_label: str
    #: series name -> {x: y or None (missing point, e.g. a stack overflow)}
    series: dict[str, dict[int, float | None]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, points: dict[int, float | None]) -> None:
        self.series[name] = dict(points)

    def xs(self) -> list[int]:
        out: set[int] = set()
        for pts in self.series.values():
            out.update(pts)
        return sorted(out)

    def value(self, name: str, x: int) -> float | None:
        return self.series.get(name, {}).get(x)

    # -- rendering -----------------------------------------------------------------

    def render_table(self) -> str:
        """Aligned text table, one row per x, one column per series."""
        buf = io.StringIO()
        names = list(self.series)
        xs = self.xs()
        wx = max(len(self.x_label), *(len(str(x)) for x in xs)) if xs else len(self.x_label)
        widths = {
            n: max(len(n), 12)
            for n in names
        }
        print(f"# {self.experiment}: {self.title}", file=buf)
        print(f"# y = {self.y_label}", file=buf)
        header = self.x_label.rjust(wx) + "  " + "  ".join(
            n.rjust(widths[n]) for n in names
        )
        print(header, file=buf)
        print("-" * len(header), file=buf)
        for x in xs:
            cells = []
            for n in names:
                v = self.series[n].get(x)
                cells.append(("-" if v is None else f"{v:.1f}").rjust(widths[n]))
            print(str(x).rjust(wx) + "  " + "  ".join(cells), file=buf)
        for note in self.notes:
            print(f"note: {note}", file=buf)
        return buf.getvalue()

    def to_csv(self) -> str:
        names = list(self.series)
        lines = [",".join([self.x_label] + names)]
        for x in self.xs():
            row = [str(x)]
            for n in names:
                v = self.series[n].get(x)
                row.append("" if v is None else f"{v:.3f}")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def mean(values) -> float:
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else float("nan")
