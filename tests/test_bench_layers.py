"""The traced benchmark run wraps package functions by name; they must exist.

bench/spans.py names the function of every layer it times.  Deleting or
moving one of them breaks `bench/run.py --trace 1`, so this checks the
names against the package without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import optlim

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves():
    missing = []
    for mod_name, names in _layers().items():
        module = importlib.import_module(f"optlim.{mod_name}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                target = vars(getattr(module, cls_name, object)).get(meth)
            else:
                target = getattr(module, name, None)
            if not callable(target):
                missing.append(f"{mod_name}.{name}")
    assert missing == []


def test_every_public_name_resolves():
    assert [name for name in optlim.__all__ if not hasattr(optlim, name)] == []
