import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("geocens_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing()


@pytest.mark.parametrize("name, home, attr", [t[:3] for t in TRACED.TARGETS],
                         ids=[f"{t[0]}:{t[2]}" for t in TRACED.TARGETS])
def test_every_traced_name_resolves(name, home, attr):
    # the benchmark's tracer wraps each target at install time; a name
    # removed from the library would otherwise show only in a traced run
    fn = TRACED._scipy_cho_solve if home is None else getattr(home, attr, None)
    assert callable(fn), f"{home.__name__}.{attr} is gone"
