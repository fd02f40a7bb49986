"""Every name the benchmark's tracer wraps still resolves.

The bench wraps library functions by name (bench/run.py::install_tracer),
so renaming or deleting one breaks its traced runs; this fails first.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_install_tracer_resolves_every_wrapped_name():
    original = run.model.forward_batch
    tracer = Tracer("t")
    try:
        run.install_tracer(tracer)
        assert run.model.forward_batch is not original
    finally:
        tracer.uninstall()
    assert run.model.forward_batch is original
