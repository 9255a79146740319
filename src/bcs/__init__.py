"""Exact equilibrium engine for discrete-bid Richman games on pebble heaps."""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec
from operator import attrgetter
from types import ModuleType


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every layer is lazy: it runs on its first attribute access.  Dependents come
# first in ``sys.modules``, so an in-order pass that patches as it goes (the
# benchmark's tracer) runs each layer before it patches a binding that layer imports.
analysis, general, oracle, solver, automaton, core = map(
    _lazy, ("analysis", "general", "oracle", "solver", "automaton", "core")
)

__version__ = "0.1.0"

# Each root export and the layer it is read from, in ``__all__``'s order.
_EXPORTS = {
    "BidPair": "core",
    "Side": "core",
    "equilibrium_bids": "solver",
    "limit_rows": "solver",
    "make_position": "core",
    "solve": "solver",
    "tie_conditioned_value": "solver",
    "value": "solver",
}
__all__ = list(_EXPORTS)

# Each root export is read from its layer on every access and never cached,
# so ``import bcs`` runs no layer and ``bcs.solve`` is always
# ``bcs.solver.solve``, patched or not.  On CPython 3.11 a property read costs
# about 0.1 us; a PEP 562 ``__getattr__`` read, about 1 us.
_Package = type("_Package", (ModuleType,), {
    **{name: property(attrgetter(f"{layer}.{name}")) for name, layer in _EXPORTS.items()},
    "__dir__": lambda self: sorted({*ModuleType.__dir__(self), *__all__}),
})
sys.modules[__name__].__class__ = _Package
