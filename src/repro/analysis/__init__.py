"""IR-drop analysis, solution comparison, and cost metering."""

from repro.analysis.irdrop import (
    IRDropReport,
    ir_drop_report,
    ascii_heatmap,
)
from repro.analysis.compare import ComparisonReport, compare_voltages
from repro.analysis.dualnet import (
    SupplyReport,
    solve_supply_pair,
    matched_gnd_stack,
)
from repro.analysis.memory import MemoryMeter, nbytes_of

__all__ = [
    "IRDropReport",
    "ir_drop_report",
    "ascii_heatmap",
    "ComparisonReport",
    "compare_voltages",
    "SupplyReport",
    "solve_supply_pair",
    "matched_gnd_stack",
    "MemoryMeter",
    "nbytes_of",
]
