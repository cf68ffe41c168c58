"""Every method the benchmark tracer patches must exist where it looks.

The tracer in ``perfbench/tracing.py`` resolves a hook target through
the class's own ``vars()``, not through attribute lookup, so a method
that a refactor moves into a base class would silently drop out of the
traced benchmark (it would only show up as ``trace.missing_hooks``).
This test resolves every target the same way.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402


def _resolve(target):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        assert owner is not None, f"{target}: no {name!r}"
    if isinstance(owner, type):
        return vars(owner).get(attr)
    return getattr(owner, attr, None)


@pytest.mark.parametrize("target", sorted({h.target for h in workloads.hooks()}))
def test_hook_target_defined_in_its_own_class(target):
    assert _resolve(target) is not None, f"{target} is not defined where the tracer patches"
