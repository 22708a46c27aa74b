"""The traced benchmark pass wraps package functions and methods by name
(`bench/tracing.py`); each of them must still exist, so that removing
or renaming one fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tables; installs nothing
    return module


def test_every_traced_function_exists():
    missing = [f"{mod.__name__}.{name}" for mod, name, *_ in _tracing().FUNCTIONS
               if not callable(getattr(mod, name, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class():
    # install() reads cls.__dict__[name], so an inherited method fails it too
    missing = [f"{cls.__qualname__}.{name}" for cls, name, *_ in _tracing().METHODS
               if name not in cls.__dict__]
    assert missing == []
