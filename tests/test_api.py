"""The package's public API: each exported name is the object of the module that defines it.

How the API is assembled (``__all__`` joined from the module lists) is a
layout rule, in ``test_layout.py``.
"""

import sys

from delinscap import analytic_bounds, channel_sim, core, gamma_optimizer

MODULES = (core, channel_sim, analytic_bounds, gamma_optimizer)


def test_each_public_name_is_its_defining_modules_object():
    # a re-export, such as analytic_bounds' run-length names, is the object of the module that defines it
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            home = sys.modules[getattr(value, "__module__", None) or module.__name__]
            assert getattr(home, name) is value, f"{module.__name__}.{name}"
