"""Package names that resolve on first use (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` a table of its public
names, each mapped to the module that defines it, and binds the two
functions it returns as the package's ``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "Simulator": ".engine",
        "RandomStreams": ".random",
    })

``from repro.sim import Simulator`` then imports ``repro.sim.engine``
and nothing else of the package; the name is cached in the package's
globals, so the second access is a plain attribute read.  A package
that registers something on import (the controller zoo, the campaign
invariants) still imports those members eagerly in its ``__init__``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, object], exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``'s ``exports``.

    ``exports`` maps each public name to its defining module, relative
    (``".engine"``) or absolute.  An unknown name raises
    :class:`AttributeError` naming the package.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
