"""Overhead gate for the chaos/integrity layer.

Two promises are made by the robustness work and both are checked
here:

* a sweep with **no** ``REPRO_CHAOS`` spec must not construct any
  chaos machinery at all — no policy, no transport wrapper, no
  per-seam RNG draws.  That is structural (deterministic), not timed;
* the integrity checksums that now ride on every journal line, store
  object and published result must stay in the noise: the sha256 over
  a few hundred canonical-JSON bytes is tiny next to executing the
  point and the open-write-flush-close durability cycle around it.
  The timed gate bounds the checksummed sweep loop at ≤5% over the
  same loop with hashing stubbed out (best-of minima, so scheduler
  noise cancels).
"""

import time

import pytest

from repro.chaos import policy_from_env
from repro.obs import metrics
from repro.runner import engine, registry, sweep
from repro.store import codec


@pytest.fixture(autouse=True)
def _builtin():
    registry.load_builtin()


def _grid(n):
    return [
        engine.RunRequest.create("sweep-noop", {"point": i})
        for i in range(n)
    ]


def _mesh_requests():
    """The small mesh design-space grid: four points with real
    per-point simulation cost (the denominator ``points/sec`` refers
    to)."""
    sc = registry.get("mesh-design-space")
    return sweep.build_requests(
        sc,
        axes={"mesh_size": [2, 3], "injection_rate": [0.05, 0.15]},
        fixed={"cycles": 200},
    )


def _sweep_points(out_dir) -> int:
    """The sweep pipeline: execute, journal, store — per point — then
    the canonical journal rewrite and the artifacts."""
    run = sweep.run_sweep(
        "mesh-design-space", _mesh_requests(),
        out_dir=out_dir, store=out_dir / "store",
    )
    return run.executed


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_no_chaos_spec_means_no_chaos_machinery(monkeypatch, tmp_path):
    """Structural zero-overhead check for the dormant chaos layer.

    Without ``REPRO_CHAOS`` in the environment no policy exists, so
    the worker runs on the bare transport and no ``chaos.*`` counters
    can ever appear — even with metrics collection on.
    """
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert policy_from_env({}) is None

    from repro.fabric import FileTransport, plan_fabric, run_worker

    transport = FileTransport(tmp_path / "fabric")
    plan_fabric(transport, "sweep-noop", _grid(4))
    with metrics.collecting(reset=True) as registry_view:
        stats = run_worker(transport, worker_id="wk-bench", once=True)
    assert stats.published > 0
    assert not any(
        name.startswith("chaos.")
        for name in registry_view.counters()
    )


def test_checksum_overhead_within_five_percent(monkeypatch, tmp_path):
    """The ≤5% points/sec gate from the robustness acceptance bar.

    Differencing two timed loops (real hashing vs stubbed hashing)
    cannot resolve this: the mesh simulation's run-to-run jitter is
    tens of times larger than the effect being measured, so that
    comparison flakes in either direction.  Instead every
    ``attach_hash``/``verify_hash`` call is *timed in place* during a
    real checksummed sweep loop, and the accumulated hash time is
    bounded against total wall time.  The timing wrapper's own cost
    lands in the numerator, so the measurement errs conservative.
    """
    real_hash = codec.attach_hash
    real_verify = codec.verify_hash
    spent = [0.0]

    def timed(fn):
        def wrapper(record):
            t0 = time.perf_counter()
            try:
                return fn(record)
            finally:
                spent[0] += time.perf_counter() - t0
        return wrapper

    monkeypatch.setattr(codec, "attach_hash", timed(real_hash))
    monkeypatch.setattr(codec, "verify_hash", timed(real_verify))

    # every run uses a fresh directory: a reused store would serve
    # every point from cache and execute nothing
    assert _sweep_points(tmp_path / "warmup") == 4
    spent[0] = 0.0
    total = 0.0
    for i in range(5):
        t0 = time.perf_counter()
        _sweep_points(tmp_path / f"run{i}")
        total += time.perf_counter() - t0

    assert spent[0] > 0.0  # the instrumented path really ran
    fraction = spent[0] / total
    assert fraction <= 0.05, (
        f"integrity hashing consumed {fraction:.1%} of the sweep "
        f"loop ({spent[0] * 1e3:.2f} ms of {total * 1e3:.1f} ms): "
        f"over the 5% budget"
    )
