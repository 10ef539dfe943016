"""Every exported name resolves: a stale entry in an ``__all__`` would break
``from stepaudit import *`` and hide a function from code that scans it."""

import importlib
import pkgutil

import stepaudit


def test_every_exported_name_resolves():
    names = ["stepaudit"] + [f"stepaudit.{m.name}" for m in pkgutil.iter_modules(stepaudit.__path__)]
    modules = [importlib.import_module(name) for name in names]
    dangling = [f"{m.__name__}.{n}" for m in modules for n in getattr(m, "__all__", ()) if not hasattr(m, n)]
    assert dangling == []
