"""Experiment bookkeeping and report formatting.

Each benchmark measures *simulated cycles* (the deterministic cost-model
clock) for the comparison the paper makes, and lets pytest-benchmark
time the simulation itself for regression tracking. The
:class:`Experiment` helper collects labelled measurements and renders
the table the paper's row would show.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.util.tables import format_table


@dataclass
class Measurement:
    """One labelled observation (usually cycles, sometimes counts)."""

    label: str
    value: float
    unit: str = "cycles"
    detail: str = ""


@dataclass
class Experiment:
    """A named experiment accumulating measurements."""

    experiment_id: str
    title: str
    paper_claim: str
    measurements: List[Measurement] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, label: str, value: float, unit: str = "cycles",
            detail: str = "") -> Measurement:
        measurement = Measurement(label, value, unit, detail)
        self.measurements.append(measurement)
        return measurement

    def note(self, text: str) -> None:
        self.notes.append(text)

    def report(self) -> str:
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper: {self.paper_claim}",
        ]
        rows = [(m.label, _fmt(m.value), m.unit, m.detail)
                for m in self.measurements]
        lines.append(format_table(("measurement", "value", "unit", "notes"),
                                  rows))
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def write_bench_json(experiment: "Experiment",
                     wall_seconds: Optional[Dict[str, float]] = None,
                     directory: str = ".") -> str:
    """Persist *experiment* as ``BENCH_<id>.json`` in *directory*.

    Simulated measurements are deterministic; *wall_seconds* carries the
    host-timing numbers (baseline vs. optimized) that give successive
    runs of the same benchmark a wall-clock trajectory to compare.
    Returns the path written.
    """
    path = os.path.join(directory,
                        f"BENCH_{experiment.experiment_id}.json")
    document = {
        "experiment": experiment.experiment_id,
        "title": experiment.title,
        "paper_claim": experiment.paper_claim,
        "measurements": [
            {"label": m.label, "value": m.value, "unit": m.unit,
             "detail": m.detail}
            for m in experiment.measurements
        ],
        "wall_clock_seconds": dict(wall_seconds or {}),
        "notes": list(experiment.notes),
    }
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return path


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio for speedup reporting."""
    if denominator == 0:
        return float("inf")
    return numerator / denominator


def _fmt(value: float) -> str:
    if value in (float("inf"), float("-inf")):
        return "inf"
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.2f}"
