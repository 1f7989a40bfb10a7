import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    # the traced benchmark run wraps each target by name, so a library
    # refactor that renames or removes one breaks it
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _, module_name, attribute in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *classes, name = attribute.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert name in vars(owner), f"{module_name}.{attribute}"
