"""Every name the benchmark's tracer wraps still resolves.

The bench wraps library functions by name (bench/run.py::install_tracer),
so renaming or deleting one breaks its traced runs; this fails first.
"""
import inspect
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


def test_tracer_wraps_each_params_class_init_and_puts_it_back():
    # every params class defines its own init, so the tracer wraps each one
    # where it lives and uninstall leaves no shadowing attribute behind
    from mppn.baselines import DLinearParams, NLinearParams
    from mppn.model import MPPNConfig, MPPNParams
    calls = {
        MPPNParams: ("model.init", lambda: MPPNParams.init(MPPNConfig(
            lookback=48, horizon=12, channels=2, hidden=4, resolutions=(1, 3), periods=(24,)))),
        NLinearParams: ("baselines.init", lambda: NLinearParams.init(48, 12)),
        DLinearParams: ("baselines.init", lambda: DLinearParams.init(48, 12)),
    }
    before = {cls: (inspect.getattr_static(cls, "init"), dict(vars(cls))) for cls in calls}
    # qualname, not mere presence: an earlier uninstall may have left one
    for cls in calls:
        assert vars(cls)["init"].__func__.__qualname__ == f"{cls.__name__}.init"
    tracer = Tracer("t")
    try:
        run.install_tracer(tracer)
        for cls, (name, call) in calls.items():
            assert inspect.getattr_static(cls, "init") is not before[cls][0]
            n = len(tracer.spans)
            assert type(call()) is cls
            assert [s["name"] for s in tracer.spans[n:] if s["parent"] is None] == [name]
    finally:
        tracer.uninstall()
    for cls in calls:
        assert inspect.getattr_static(cls, "init") is before[cls][0]
        assert vars(cls) == before[cls][1]
