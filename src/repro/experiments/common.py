"""Shared experiment scaffolding.

Every experiment module exposes ``run(tech=None, **options)`` returning
an :class:`ExperimentResult`; the benchmark harness prints
``result.render()`` (the same rows/series the paper reports) and the
tests assert ``result.checks`` — the paper-vs-measured comparisons with
their tolerances.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..runner.registry import ParamSpec
from ..tech.technology import Technology
from ..tech.st012 import st012
from ..analysis.report import format_table, relative_error


@dataclass
class Check:
    """One paper-vs-measured comparison.

    ``mode`` selects the acceptance rule: ``"two_sided"`` (default)
    requires |error| ≤ tolerance; ``"at_least"`` requires the measured
    value to be no more than ``tolerance`` *below* the reference (used
    for claims of the form "the extension is at least this much
    faster" where overshooting is success, not failure).
    """

    name: str
    measured: float
    paper: float
    tolerance: float  # relative
    mode: str = "two_sided"

    def __post_init__(self) -> None:
        if self.mode not in ("two_sided", "at_least"):
            raise ValueError(f"unknown check mode {self.mode!r}")

    @property
    def error(self) -> float:
        return relative_error(self.measured, self.paper)

    @property
    def ok(self) -> bool:
        if self.mode == "at_least":
            return self.error >= -self.tolerance
        return abs(self.error) <= self.tolerance

    def row(self) -> Sequence[object]:
        return (
            self.name,
            f"{self.measured:.4g}",
            f"{self.paper:.4g}",
            f"{100 * self.error:+.1f}%",
            "ok" if self.ok else "FAIL",
        )


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    description: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    checks: List[Check] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        parts = [
            format_table(
                self.headers,
                self.rows,
                title=f"{self.experiment_id}: {self.description}",
            )
        ]
        if self.checks:
            parts.append("")
            parts.append(
                format_table(
                    ("check", "measured", "paper", "error", "status"),
                    [c.row() for c in self.checks],
                    title="paper-vs-measured",
                )
            )
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]

    def to_csv(self, destination: Union[str, Path, None] = None) -> str:
        """The result rows as CSV (for plotting outside this repo).

        Writes to ``destination`` if given; always returns the CSV text.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow(["" if cell is None else cell for cell in row])
        text = buf.getvalue()
        if destination is not None:
            Path(destination).write_text(text, encoding="utf-8")
        return text

    def checks_csv(self) -> str:
        """The paper-vs-measured checks as CSV."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("check", "measured", "paper", "error", "status"))
        for check in self.checks:
            writer.writerow(check.row())
        return buf.getvalue()


def resolve_tech(tech: Optional[Technology]) -> Technology:
    """Default to the calibrated ST 0.12 µm technology."""
    return tech if tech is not None else st012()


# -- shared by the six NoC scenarios -----------------------------------

MESH_SIZE = ParamSpec(
    "mesh_size", int, 4,
    help="mesh is mesh_size x mesh_size switches",
    choices=(2, 3, 4, 5, 6, 7, 8),
)
INJECTION_RATE = ParamSpec(
    "injection_rate", float, 0.15,
    help="offered load, flits/node/cycle",
    sweep=(0.05, 0.10, 0.15, 0.20, 0.25),
)
KIND = ParamSpec(
    "kind", str, "I3",
    help="link implementation under study",
    choices=("I1", "I2", "I3"),
)
FREQ_MHZ = ParamSpec("freq_mhz", float, 300.0, help="switch clock")
CYCLES = ParamSpec(
    "cycles", int, 800,
    help="traffic cycles before drain; the first quarter warms up",
)
SEED = ParamSpec("seed", int, 2008)


def noc_cost(params: Dict[str, object]) -> float:
    """The NoC scenarios' ``cost`` hook: offered flit-hops of one point,
    nodes x cycles x injection rate x mesh_size, the last factor
    standing in for the mean hop count."""
    size = params["mesh_size"]
    return size * size * params["cycles"] * params["injection_rate"] * size


def noc_cells(point: Dict[str, float]) -> List[str]:
    """The accepted-throughput, mean- and p99-latency table cells of one
    ``run_mesh_point`` result."""
    return [
        f"{point['throughput']:.4f}",
        f"{point['mean_latency']:.1f}",
        f"{point['p99_latency']:.0f}",
    ]


def noc_checks(
    point: Dict[str, float],
    conservation: str = "flit conservation (ejected vs injected)",
    delivery: Optional[str] = "traffic delivered (packets ejected >= 1)",
) -> List[Check]:
    """The invariants of one drained ``run_mesh_point`` result, under the
    given check names: the network ejected every flit it injected and,
    unless ``delivery`` is None, delivered at least one packet."""
    checks = [
        Check(
            conservation,
            point["flits_ejected"],
            max(point["flits_injected"], 1),
            0.0,
        ),
    ]
    if delivery is not None:
        checks.append(Check(
            delivery, point["packets_ejected"], 1.0, 0.0, mode="at_least",
        ))
    return checks
