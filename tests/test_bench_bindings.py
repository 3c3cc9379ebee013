"""The benchmark tracer patches hypercurv functions by (module, attribute);
a binding that no longer resolves breaks every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(mod, attr) for mod, attr, _ in tracer.BINDINGS
               if not callable(getattr(
                   importlib.import_module(f"hypercurv.{mod}"), attr, None))]
    assert tracer.BINDINGS and not missing
