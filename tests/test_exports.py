"""Names other code relies on: every `__all__` entry resolves, and every
function or method the benchmark's tracer (perfbench/tracing.py) rebinds
exists, so removing a name cannot leave a stale export or break
`perfbench/run.py --trace 1`."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import nodalscope

MODULES = [importlib.import_module(f"nodalscope.{info.name}")
           for info in pkgutil.iter_modules(nodalscope.__path__)]


def test_all_entries_resolve():
    missing = [f"{mod.__name__}.{name}" for mod in MODULES
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def test_traced_names_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}"
               for mod, attr, _ in tracing.TRACED.values()
               if not hasattr(importlib.import_module(f"nodalscope.{mod}"),
                              attr)]
    missing += [f"{mod}.{cls}.{meth}"
                for mod, cls, meth, _ in tracing.TRACED_METHODS.values()
                if meth not in vars(getattr(
                    importlib.import_module(f"nodalscope.{mod}"), cls, object))]
    assert missing == []
    # the tracer binds and restores every name without error
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
