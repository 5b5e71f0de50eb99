"""Sweep result views (Figures 6, 7 and 8).

* Figure 6 — remaining ranks of the convolutional layers versus the tolerable
  clipping error ``ε`` (with the achieved accuracy).
* Figure 7 — per-layer and total crossbar area versus classification error,
  swept over ``ε`` (LeNet and ConvNet panels).
* Figure 8 — remaining routing wires and routing area versus classification
  error, swept over the group-Lasso strength ``λ`` (ConvNet).

The sweep *execution* lives in the declarative core
(:mod:`repro.experiments.plan`): an :class:`~repro.experiments.spec.ExperimentSpec`
with ``kind="sweep"`` expands into engine point tasks, runs serial /
process-fanned / lockstep per its engine policy, and persists per-point
artifacts through the run store.  This module keeps the result dataclasses,
including their table renderings and JSON payload round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence



# ------------------------------------------------------------------- hardware
def _hardware_from_payload(payload: Dict[str, Any]) -> Optional[Dict[str, float]]:
    """Simulated-accuracy block of a point payload (absent → ``None``)."""
    hardware = payload.get("hardware")
    if hardware is None:
        return None
    return {label: float(value) for label, value in hardware.items()}


def hardware_labels(points: Sequence) -> List[str]:
    """Device-corner labels present in a point list, first-seen order."""
    labels: List[str] = []
    for point in points:
        for label in getattr(point, "hardware", None) or {}:
            if label not in labels:
                labels.append(label)
    return labels


def _hardware_columns(points: Sequence) -> tuple:
    """``(header, per-point cell strings)`` for the sweep tables."""
    labels = hardware_labels(points)
    widths = [max(14, len(label) + 5) for label in labels]
    header = "".join(
        f"{f'hw {label}':>{width}}" for label, width in zip(labels, widths)
    )
    cells = []
    for point in points:
        hardware = getattr(point, "hardware", None) or {}
        cells.append(
            "".join(
                f"{hardware[label]:>{width}.3f}" if label in hardware else f"{'-':>{width}}"
                for label, width in zip(labels, widths)
            )
        )
    return header, cells


# ----------------------------------------------------------------- Figure 6 / 7
@dataclass(frozen=True)
class TolerancePoint:
    """One ε point of the rank-clipping sweep.

    ``hardware`` optionally carries the point network's simulated accuracy
    per device corner (``HardwareConfig.label`` → accuracy), filled in when
    the owning spec has a ``hardware`` section.
    """

    tolerance: float
    accuracy: float
    error: float
    ranks: Dict[str, int]
    layer_area_fractions: Dict[str, float]
    total_area_fraction: float
    hardware: Optional[Dict[str, float]] = None

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts."""
        payload = {
            "tolerance": self.tolerance,
            "accuracy": self.accuracy,
            "error": self.error,
            "ranks": dict(self.ranks),
            "layer_area_fractions": dict(self.layer_area_fractions),
            "total_area_fraction": self.total_area_fraction,
        }
        if self.hardware is not None:
            payload["hardware"] = dict(self.hardware)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TolerancePoint":
        """Rebuild from :meth:`to_payload` output."""
        return cls(
            tolerance=float(payload["tolerance"]),
            accuracy=float(payload["accuracy"]),
            error=float(payload["error"]),
            ranks={name: int(rank) for name, rank in payload["ranks"].items()},
            layer_area_fractions={
                name: float(value)
                for name, value in payload["layer_area_fractions"].items()
            },
            total_area_fraction=float(payload["total_area_fraction"]),
            hardware=_hardware_from_payload(payload),
        )


@dataclass
class ToleranceSweepResult:
    """Rank/area versus tolerance sweep (data behind Figures 6 and 7)."""

    workload_name: str
    points: List[TolerancePoint] = field(default_factory=list)
    baseline_accuracy: Optional[float] = None

    def tolerances(self) -> List[float]:
        """The swept ε values in run order."""
        return [p.tolerance for p in self.points]

    def ranks_series(self, layer: str) -> List[int]:
        """Remaining rank of one layer across the sweep (Figure 6 stems)."""
        return [p.ranks[layer] for p in self.points]

    def area_series(self, layer: Optional[str] = None) -> List[float]:
        """Crossbar-area fraction across the sweep (per layer or total)."""
        if layer is None:
            return [p.total_area_fraction for p in self.points]
        return [p.layer_area_fractions[layer] for p in self.points]

    def error_series(self) -> List[float]:
        """Classification error across the sweep (Figure 7's x-axis)."""
        return [p.error for p in self.points]

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts."""
        return {
            "workload_name": self.workload_name,
            "baseline_accuracy": self.baseline_accuracy,
            "points": [p.to_payload() for p in self.points],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ToleranceSweepResult":
        """Rebuild from :meth:`to_payload` output."""
        return cls(
            workload_name=payload["workload_name"],
            baseline_accuracy=payload.get("baseline_accuracy"),
            points=[TolerancePoint.from_payload(p) for p in payload.get("points", [])],
        )

    def format_table(self) -> str:
        """Text rendering of the sweep.

        Layer columns are the union over all points; a point missing a layer
        (e.g. a partially-recorded run) renders stub cells instead of
        raising.
        """
        layers = sorted({layer for p in self.points for layer in p.ranks})
        hw_header, hw_cells = _hardware_columns(self.points)
        header = (
            f"{'eps':>8}{'error':>9}{'total%':>9}"
            + "".join(f"{f'{l} K':>9}" for l in layers)
            + "".join(f"{f'{l} %':>9}" for l in layers)
            + hw_header
        )
        lines = [f"Tolerance sweep ({self.workload_name})", header, "-" * len(header)]
        for p, hw in zip(self.points, hw_cells):
            ranks = "".join(
                f"{p.ranks[l]:>9}" if l in p.ranks else f"{'-':>9}" for l in layers
            )
            areas = "".join(
                f"{100 * p.layer_area_fractions[l]:>8.1f}%"
                if l in p.layer_area_fractions
                else f"{'-':>9}"
                for l in layers
            )
            lines.append(
                f"{p.tolerance:>8.3f}{p.error:>9.3f}{100 * p.total_area_fraction:>8.1f}%"
                f"{ranks}{areas}{hw}"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------- Figure 8
@dataclass(frozen=True)
class StrengthPoint:
    """One λ point of the group-deletion sweep.

    ``hardware`` optionally carries the point network's simulated accuracy
    per device corner (``HardwareConfig.label`` → accuracy), filled in when
    the owning spec has a ``hardware`` section.
    """

    strength: float
    accuracy: float
    error: float
    wire_fractions: Dict[str, float]
    routing_area_fractions: Dict[str, float]
    hardware: Optional[Dict[str, float]] = None

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts."""
        payload = {
            "strength": self.strength,
            "accuracy": self.accuracy,
            "error": self.error,
            "wire_fractions": dict(self.wire_fractions),
            "routing_area_fractions": dict(self.routing_area_fractions),
        }
        if self.hardware is not None:
            payload["hardware"] = dict(self.hardware)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "StrengthPoint":
        """Rebuild from :meth:`to_payload` output."""
        return cls(
            strength=float(payload["strength"]),
            accuracy=float(payload["accuracy"]),
            error=float(payload["error"]),
            wire_fractions={
                name: float(value) for name, value in payload["wire_fractions"].items()
            },
            routing_area_fractions={
                name: float(value)
                for name, value in payload["routing_area_fractions"].items()
            },
            hardware=_hardware_from_payload(payload),
        )


@dataclass
class StrengthSweepResult:
    """Routing wires/area versus λ sweep (data behind Figure 8).

    ``routing_cache_stats`` aggregates the hit/miss counters of the points'
    memoized routing analyses (zeros when memoization was disabled, and only
    freshly-trained points contribute on a resumed run).
    """

    workload_name: str
    points: List[StrengthPoint] = field(default_factory=list)
    baseline_accuracy: Optional[float] = None
    routing_cache_stats: Dict[str, int] = field(default_factory=dict)

    def strengths(self) -> List[float]:
        """The swept λ values in run order."""
        return [p.strength for p in self.points]

    def error_series(self) -> List[float]:
        """Classification error across the sweep (Figure 8's x-axis)."""
        return [p.error for p in self.points]

    def wire_series(self, matrix: str) -> List[float]:
        """Remaining-wire fraction of one matrix across the sweep."""
        return [p.wire_fractions[matrix] for p in self.points]

    def routing_area_series(self, matrix: str) -> List[float]:
        """Remaining routing-area fraction of one matrix across the sweep."""
        return [p.routing_area_fractions[matrix] for p in self.points]

    def matrices(self) -> List[str]:
        """Matrix names present in the sweep (union over all points)."""
        return sorted({name for p in self.points for name in p.wire_fractions})

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts."""
        return {
            "workload_name": self.workload_name,
            "baseline_accuracy": self.baseline_accuracy,
            "routing_cache_stats": dict(self.routing_cache_stats),
            "points": [p.to_payload() for p in self.points],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "StrengthSweepResult":
        """Rebuild from :meth:`to_payload` output."""
        return cls(
            workload_name=payload["workload_name"],
            baseline_accuracy=payload.get("baseline_accuracy"),
            routing_cache_stats={
                key: int(value)
                for key, value in (payload.get("routing_cache_stats") or {}).items()
            },
            points=[StrengthPoint.from_payload(p) for p in payload.get("points", [])],
        )

    def format_table(self) -> str:
        """Text rendering of the sweep.

        Matrix columns are the union over all points; a point missing a
        matrix renders stub cells instead of raising.
        """
        names = self.matrices()
        hw_header, hw_cells = _hardware_columns(self.points)
        header = (
            f"{'lambda':>10}{'error':>9}"
            + "".join(f"{f'{n} w%':>14}" for n in names)
            + "".join(f"{f'{n} a%':>14}" for n in names)
            + hw_header
        )
        lines = [f"Strength sweep ({self.workload_name})", header, "-" * len(header)]
        for p, hw in zip(self.points, hw_cells):
            wires = "".join(
                f"{100 * p.wire_fractions[n]:>13.1f}%"
                if n in p.wire_fractions
                else f"{'-':>14}"
                for n in names
            )
            areas = "".join(
                f"{100 * p.routing_area_fractions[n]:>13.1f}%"
                if n in p.routing_area_fractions
                else f"{'-':>14}"
                for n in names
            )
            lines.append(f"{p.strength:>10.4f}{p.error:>9.3f}{wires}{areas}{hw}")
        return "\n".join(lines)
