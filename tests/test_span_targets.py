"""The benchmark's tracer (perfbench/spans.py) patches program functions by
name; a rename or removal in fgl_forge would break `perfbench/run.py
--trace 1`.  This loads the span map read-only and checks every name."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.TARGETS.items():
        home = importlib.import_module(f"fgl_forge.{layer}")
        for qualname in names:
            cls_name, _, attr = qualname.rpartition(".")
            scope = vars(home)
            if cls_name:
                scope = vars(scope[cls_name]) if cls_name in scope else {}
            if not callable(scope.get(attr)):
                missing.append(f"{layer}.{qualname}")
    assert not missing, f"span targets missing from fgl_forge: {missing}"
