"""Exact equilibrium engine for discrete-bid Richman games on pebble heaps."""

# Everything beyond the documented entry points below lives in its submodule;
# ``import bcs`` still loads them all.
from . import analysis, automaton, general, oracle
from .core import BidPair, Side, make_position
from .solver import (
    equilibrium_bids,
    limit_rows,
    solve,
    tie_conditioned_value,
    value,
)

__version__ = "0.1.0"

__all__ = [
    "BidPair",
    "Side",
    "equilibrium_bids",
    "limit_rows",
    "make_position",
    "solve",
    "tie_conditioned_value",
    "value",
]
