"""Benchmark: result-store and journal overhead vs scenario cost.

Durability must be nearly free — journaling an outcome and publishing
it into the content-addressed store are a few JSON dumps next to a
mesh simulation that takes orders of magnitude longer.  Two probes:

* store round-trip (put + contains + get) for a real sweep outcome;
* a sweep through the full pipeline (``run_sweep`` with an output
  directory and a store) vs the bare engine.
"""

import time

from repro.runner import engine, registry, sweep
from repro.store import RunStore


def _requests():
    registry.load_builtin()
    sc = registry.get("mesh-design-space")
    return sweep.build_requests(
        sc, axes={"mesh_size": [2, 3]}, fixed={"cycles": 100}
    )


def test_bench_store_roundtrip(benchmark, tmp_path, report):
    outcome = engine.execute(_requests()[:1])[0]

    def roundtrip(i):
        cache = RunStore(tmp_path / str(i))
        cache.put(outcome)
        assert outcome.request in cache
        return cache.get(outcome.request)

    counter = iter(range(10_000))
    restored = benchmark.pedantic(
        lambda: roundtrip(next(counter)), rounds=5, iterations=3
    )
    assert restored.result.to_csv() == outcome.result.to_csv()
    report("store round-trip: put + contains + get of one sweep outcome")


def test_bench_durable_sweep_overhead(benchmark, tmp_path, report):
    requests = _requests()

    t0 = time.perf_counter()
    engine.execute(requests)
    bare = time.perf_counter() - t0

    def durable(out_dir):
        return sweep.run_sweep(
            "mesh-design-space", requests,
            out_dir=out_dir, store=out_dir / "store",
        ).outcomes

    counter = iter(range(10_000))
    outcomes = benchmark.pedantic(
        lambda: durable(tmp_path / str(next(counter))),
        rounds=3, iterations=1,
    )
    assert all(o.ok for o in outcomes)

    t0 = time.perf_counter()
    durable(tmp_path / "timed")
    durably = time.perf_counter() - t0
    report(
        f"durable-sweep overhead: bare {bare * 1e3:.1f} ms, "
        f"with journal+store {durably * 1e3:.1f} ms "
        f"({durably / bare:.2f}x)"
    )
    # durability must not multiply sweep cost; generous bound for CI noise
    assert durably < bare * 3 + 0.25
