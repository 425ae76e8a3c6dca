"""DSENT-style router energy model and hardware-cost estimation."""

from .area import PunchAreaEstimate, RouterAreaBudget, estimate_punch_area
from .constants import DEFAULT_CONSTANTS, PowerConstants
from .model import EnergyBreakdown, EnergyModel, account

__all__ = [
    "DEFAULT_CONSTANTS",
    "EnergyBreakdown",
    "EnergyModel",
    "PowerConstants",
    "PunchAreaEstimate",
    "RouterAreaBudget",
    "account",
    "estimate_punch_area",
]
