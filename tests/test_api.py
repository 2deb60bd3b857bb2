"""The package's public API is the four modules' ``__all__`` lists, declared once."""

import delinscap
from delinscap import analytic_bounds, channel_sim, core, gamma_optimizer


def test_package_all_is_the_module_lists_joined():
    modules = (core, channel_sim, analytic_bounds, gamma_optimizer)
    assert delinscap.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(delinscap.__all__)) == len(delinscap.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(delinscap, name) is getattr(module, name)
