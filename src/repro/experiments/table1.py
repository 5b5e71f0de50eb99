"""Table 1 result view.

Table 1 reports accuracy and per-layer ranks for Original / Direct LRA /
Rank clipping.  The harness logic — train the dense baseline, run rank
clipping to find the final per-layer ranks, then build the "Direct LRA"
control by truncating the *baseline* network at exactly those ranks without
retraining — lives in the declarative core
(:mod:`repro.experiments.plan`, ``kind="table1"``).  This module keeps the
result dataclasses, with their paper-layout rendering and JSON payload
round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.rank_clipping import RankClippingResult


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1 (a method with its accuracy and per-layer ranks)."""

    method: str
    accuracy: float
    ranks: Dict[str, int]


@dataclass
class Table1Result:
    """Full Table 1 for one workload."""

    workload_name: str
    layer_order: List[str]
    rows: List[Table1Row] = field(default_factory=list)
    clipping_result: Optional[RankClippingResult] = None

    def row(self, method: str) -> Table1Row:
        """Return the row for ``method`` (e.g. ``"Rank clipping"``)."""
        for row in self.rows:
            if row.method == method:
                return row
        raise KeyError(f"no row for method {method!r}")

    def accuracy_drop(self) -> float:
        """Original accuracy minus rank-clipping accuracy."""
        return self.row("Original").accuracy - self.row("Rank clipping").accuracy

    def format_table(self) -> str:
        """Render the table in the paper's layout."""
        header = f"{'method':<16}{'accuracy':>10}  " + "".join(
            f"{name:>10}" for name in self.layer_order
        )
        lines = [f"Table 1 ({self.workload_name})", header, "-" * len(header)]
        for row in self.rows:
            ranks = "".join(f"{row.ranks.get(name, '-')!s:>10}" for name in self.layer_order)
            lines.append(f"{row.method:<16}{row.accuracy:>9.2%}  {ranks}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, dict]:
        """JSON-friendly view keyed by method name."""
        return {
            row.method: {"accuracy": row.accuracy, "ranks": dict(row.ranks)}
            for row in self.rows
        }

    def to_payload(self) -> Dict[str, Any]:
        """JSON view stored in run artifacts (drops the training trace)."""
        return {
            "workload_name": self.workload_name,
            "layer_order": list(self.layer_order),
            "rows": [
                {"method": row.method, "accuracy": row.accuracy, "ranks": dict(row.ranks)}
                for row in self.rows
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Table1Result":
        """Rebuild from :meth:`to_payload` output (``clipping_result`` is lost)."""
        return cls(
            workload_name=payload["workload_name"],
            layer_order=list(payload["layer_order"]),
            rows=[
                Table1Row(
                    method=row["method"],
                    accuracy=float(row["accuracy"]),
                    ranks={name: int(rank) for name, rank in row["ranks"].items()},
                )
                for row in payload.get("rows", [])
            ],
        )
