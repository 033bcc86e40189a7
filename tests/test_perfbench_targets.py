"""
The benchmark tracer wraps package names it looks up at run time; a
rename that breaks ``--trace 1`` fails here instead.  ``perfbench/`` is
read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    # ``install`` takes a method from the class __dict__ and anything else
    # from the module's attributes
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    unresolved = []
    for mod_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"poisswell.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            unresolved.append(f"{mod_name}.{attr}")
    assert unresolved == []
