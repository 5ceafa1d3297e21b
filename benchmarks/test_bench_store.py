"""Overhead gate for the result store and the sweep journal.

Durability must be nearly free — journaling an outcome and publishing
it into the content-addressed store are a few JSON dumps next to a
mesh simulation that takes orders of magnitude longer.  The gate
times a sweep through the full pipeline (``run_sweep`` with an output
directory and a store) against the bare engine.
"""

import time

from repro.runner import engine, registry, sweep


def _requests():
    registry.load_builtin()
    sc = registry.get("mesh-design-space")
    return sweep.build_requests(
        sc, axes={"mesh_size": [2, 3]}, fixed={"cycles": 100}
    )


def test_bench_durable_sweep_overhead(tmp_path):
    requests = _requests()

    t0 = time.perf_counter()
    engine.execute(requests)
    bare = time.perf_counter() - t0

    def durable(out_dir):
        return sweep.run_sweep(
            "mesh-design-space", requests,
            out_dir=out_dir, store=out_dir / "store",
        ).outcomes

    # a warm-up run into its own directory, so the timed run pays no
    # first-call costs and reuses no stored point
    assert all(o.ok for o in durable(tmp_path / "warm"))

    t0 = time.perf_counter()
    durable(tmp_path / "timed")
    durably = time.perf_counter() - t0
    # durability must not multiply sweep cost; generous bound for CI noise
    assert durably < bare * 3 + 0.25
