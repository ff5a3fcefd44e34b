"""The linear-interpolation unit evaluating rate tables.

The engine's payment and payoff calculations interpolate the interest-rate
term structure at every time point ("interpolation sub-steps that operate
for each time point", paper Fig. 2 caption).  In the HLS implementation the
rate table lives in on-chip memory and the locate step is a **fixed-bound
linear scan** over the whole table: HLS cannot pipeline a data-dependent
early exit without variable latency, so the production implementation scans
all ``H`` entries at II=1 and selects the bracketing pair with predicated
logic.  At 1024 entries this scan — not the arithmetic — is what makes the
interpolation stage one of the two "many cycles to produce a result for a
single time point" stages the paper replicates in its vectorisation step.

The *hazard* accumulation, by contrast, is an early-exit accumulation whose
cost is the number of entries at or before the evaluation time (see
:meth:`repro.core.curves.HazardCurve.accumulation_length`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.curves import Curve
from repro.errors import ValidationError
from repro.hls.ops import op

__all__ = ["InterpolatorModel"]


@dataclass(frozen=True)
class InterpolatorModel:
    """Timing + functional model of one table-interpolation unit.

    Parameters
    ----------
    table_length:
        Number of table entries scanned per evaluation.
    scan_ii:
        Cycles per scanned entry (II of the scan loop).
    fixed_bound:
        ``True`` (default, matches HLS practice) scans the full table every
        evaluation; ``False`` models an early-exit scan whose cost is the
        locate index (used by the CPU cost model and ablations).
    """

    table_length: int
    scan_ii: float = 1.0
    fixed_bound: bool = True

    def __post_init__(self) -> None:
        if self.table_length < 1:
            raise ValidationError(
                f"table_length must be >= 1, got {self.table_length}"
            )
        if self.scan_ii <= 0.0:
            raise ValidationError(f"scan_ii must be > 0, got {self.scan_ii}")

    @cached_property
    def arithmetic_latency(self) -> float:
        """Latency of the interpolation arithmetic after the scan.

        One subtract per axis, a divide for the slope and a multiply-add:
        ``(t - t0) / (t1 - t0) * (v1 - v0) + v0``.  Computed once per
        model: every evaluation of a table scan adds it.
        """
        return float(
            op("dsub").latency * 2
            + op("ddiv").latency
            + op("dmul").latency
            + op("dadd").latency
        )

    def evaluation_cycles(self, locate_index: int) -> float:
        """Cycles for one table evaluation.

        ``locate_index`` is the bracketing position (only used for the
        early-exit variant).
        """
        if locate_index < 0:
            raise ValidationError(f"locate_index must be >= 0, got {locate_index}")
        entries = self.table_length if self.fixed_bound else min(
            max(locate_index, 1), self.table_length
        )
        return entries * self.scan_ii + self.arithmetic_latency

    def evaluate(self, curve: Curve, t: float) -> tuple[float, float]:
        """Interpolate ``curve`` at ``t``: returns ``(value, cycles)``."""
        value = float(curve.interpolate(t))
        cycles = self.evaluation_cycles(curve.locate(t))
        return value, cycles
