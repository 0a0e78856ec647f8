"""The benchmark's tracer (perfbench/tracing.py) wraps finembed's entry
points by name.  Installing and uninstalling it here, in-process, makes a
renamed or deleted traced name fail these tests rather than a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def finembed_namespaces() -> list:
    """Every finembed module and every class defined in one."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and name.split(".")[0] == "finembed"]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if isinstance(v, type)
               and v.__module__.split(".")[0] == "finembed"}
    return modules + list(classes.values())


def snapshot() -> dict:
    return {(id(ns), attr): value for ns in finembed_namespaces()
            for attr, value in vars(ns).items()}


def test_tracer_replaces_every_traced_name_and_restores_it():
    tracing = load_tracing()
    wrapped = []

    class Recording(tracing.Tracer):
        def _wrap_function(self, module, name, *args, **kwargs):
            wrapped.append((module, name, getattr(module, name)))
            super()._wrap_function(module, name, *args, **kwargs)

        def _wrap_method(self, cls, name, *args, **kwargs):
            wrapped.append((cls, name, cls.__dict__[name]))
            super()._wrap_method(cls, name, *args, **kwargs)

    before = snapshot()
    tracer = Recording()
    try:
        tracer.install()  # a traced name that is gone raises here
        assert wrapped
        namespaces = finembed_namespaces()
        for owner, name, orig in wrapped:
            assert vars(owner)[name] is not orig, name
            assert not any(v is orig for ns in namespaces
                           for v in vars(ns).values()), name
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if before[key] is not value] == []
