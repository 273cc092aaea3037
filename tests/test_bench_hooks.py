"""The benchmark's tracer finds every function it wraps.

bench/spans.py times the layers by replacing module attributes such as
pmmobility.oracle.instantiate_geometry; a renamed or deleted one shows up
as an absent layer and silently zeroes its metrics.
"""

from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_wrap_points_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
