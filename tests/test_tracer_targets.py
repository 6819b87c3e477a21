"""Every function that the perfbench tracer wraps still exists.

The tracer lists a vanished target as missing and runs on, so a renamed
or deleted function would otherwise surface only in perfbench's own
self-test.  The tracer module is imported, never installed.
"""

import importlib
import inspect
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(PERFBENCH)

import tracer  # noqa: E402


def test_every_tracer_target_resolves_to_a_function():
    missing = []
    for _, modname, path in tracer.TARGETS:
        module = importlib.import_module(modname)
        owner, _, attr = path.rpartition(".")
        owner = getattr(module, owner, None) if owner else module
        if not inspect.isfunction(vars(owner).get(attr) if owner is not None else None):
            missing.append("%s:%s" % (modname, path))
    assert len(tracer.TARGETS) > 40
    assert missing == []
