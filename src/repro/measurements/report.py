"""Rendering helpers: ASCII tables, CDF series, Venn counts.

The experiment modules produce structured rows; these helpers turn them
into the text the benches print, and compute the derived series the
figures need from scan-aggregate counters (histograms and CDFs for
Figures 3-4, three-set Venn regions for Figure 5).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass


def render_table(headers: list[str], rows: list[list[str]],
                 title: str = "") -> str:
    """A fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in rows:
        lines.append(" | ".join(
            str(cell).ljust(width) for cell, width in zip(row, widths)
        ))
    return "\n".join(lines)


def cdf_series(counts: Mapping[int, int],
               points: list[int | float] | None = None
               ) -> list[tuple[float, float]]:
    """Empirical CDF of a ``{value: count}`` histogram, evaluated at
    ``points`` (or at each distinct value)."""
    total = sum(counts.values())
    if not total:
        return []
    ordered = sorted(counts.items())
    if points is None:
        points = [value for value, _count in ordered]
    series = []
    position = 0
    index = 0
    for point in points:
        while position < len(ordered) and ordered[position][0] <= point:
            index += ordered[position][1]
            position += 1
        series.append((float(point), index / total))
    return series


def histogram(counts: Mapping[int, int]) -> dict[int, float]:
    """Relative frequency of each value of a ``{value: count}`` mapping."""
    total = sum(counts.values())
    return {value: count / total for value, count in sorted(counts.items())}


#: Venn region -> the aggregate stratum key it counts.
_STRATUM_REGIONS = {
    "only_a": "hijack", "only_b": "saddns", "only_c": "frag",
    "ab": "hijack+saddns", "ac": "hijack+frag", "bc": "saddns+frag",
    "abc": "hijack+saddns+frag",
}


@dataclass
class VennCounts:
    """Region sizes of a three-set Venn diagram (Figure 5)."""

    only_a: int
    only_b: int
    only_c: int
    ab: int
    ac: int
    bc: int
    abc: int
    labels: tuple[str, str, str] = ("HijackDNS", "SadDNS", "FragDNS")

    @classmethod
    def from_strata(cls, strata: Mapping[str, int]) -> "VennCounts":
        """Regions from a scan aggregate's ``strata`` counter.

        The seven non-``"none"`` strata of
        :class:`repro.atlas.aggregate.ScanAggregate` are exactly the
        seven regions over (hijack, saddns, frag).
        """
        return cls(**{region: strata.get(key, 0)
                      for region, key in _STRATUM_REGIONS.items()})

    @property
    def total(self) -> int:
        """Entities vulnerable to at least one method."""
        return (self.only_a + self.only_b + self.only_c
                + self.ab + self.ac + self.bc + self.abc)

    def set_total(self, label: str) -> int:
        """Total size of one named set (all regions containing it)."""
        index = self.labels.index(label)
        if index == 0:
            return self.only_a + self.ab + self.ac + self.abc
        if index == 1:
            return self.only_b + self.ab + self.bc + self.abc
        return self.only_c + self.ac + self.bc + self.abc

    def render(self, title: str) -> str:
        """Textual Venn region listing."""
        a, b, c = self.labels
        rows = [
            [f"{a} only", str(self.only_a)],
            [f"{b} only", str(self.only_b)],
            [f"{c} only", str(self.only_c)],
            [f"{a} & {b}", str(self.ab)],
            [f"{a} & {c}", str(self.ac)],
            [f"{b} & {c}", str(self.bc)],
            [f"{a} & {b} & {c}", str(self.abc)],
            ["total vulnerable", str(self.total)],
        ]
        return render_table(["region", "count"], rows, title=title)


def scale_count(sampled_count: int, sampled_size: int,
                full_size: int) -> int:
    """Extrapolate a sampled count to the full population size."""
    if sampled_size == 0:
        return 0
    return round(sampled_count * full_size / sampled_size)
