"""The benchmark's tracer (bench/tracer.py) patches centerlab's functions by
identity, under the names its TRACED table lists.  Every listed name must
resolve, or each traced run fails, and a plain name must be a function: a
class patched with a wrapper would no longer be the class that isinstance
tests against."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves_to_a_function():
    for mod_name, names in _traced().items():
        mod = importlib.import_module(f"centerlab.{mod_name}")
        for name in names:
            owner, attr = mod, name
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(mod, cls_name, None)
                assert inspect.isclass(owner), f"{mod_name}.{cls_name} is not a class"
            assert inspect.isfunction(getattr(owner, attr, None)), \
                f"{mod_name}.{name} is not a function"
