"""The traced benchmark rebinds library names by string; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    for short, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"ribbontensor.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{short}.{name}"
    for short, classes in tracer.METHODS.items():
        module = importlib.import_module(f"ribbontensor.{short}")
        for cname, methods in classes.items():
            cls = getattr(module, cname)
            for mname in methods:
                assert mname in vars(cls), f"{short}.{cname}.{mname}"


def test_state_tables_keep_cache_info():
    from ribbontensor import polynomials

    for name in ("q_state_table", "transition_state_table"):
        info = getattr(polynomials, name).cache_info()
        assert info.misses >= 0 and info.maxsize > 0, name
