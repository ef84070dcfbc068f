"""Every function the benchmark tracer wraps still exists under its name.

`bench/tracing.py` is loaded as a plain module (read-only: no wrapper is
installed), and each entry of its TARGETS is resolved the way
`Tracer.install` resolves it, so a rename in ktrg fails here and not only
in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_targets() -> list:
    spec = importlib.util.spec_from_file_location("bench_tracing_targets", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("mod_name, path, counter, per_scale", TARGETS, ids=[f"{m}.{p}" for m, p, *_ in TARGETS])
def test_trace_target_resolves(mod_name, path, counter, per_scale):
    home = importlib.import_module(f"ktrg.{mod_name}")
    if "." in path:
        # methods are wrapped on the class that defines them
        cls_name, attr = path.split(".")
        fn = vars(getattr(home, cls_name))[attr]
    else:
        fn = getattr(home, path)
    assert callable(fn)
    if per_scale:
        # split by the scale argument
        assert "j" in inspect.signature(fn).parameters
