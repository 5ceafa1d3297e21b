"""Overhead gate for the observability layer.

The registry's contract with the kernels is that a *disabled* metrics
site costs one attribute check — nothing allocated, nothing published,
no registry mutation.  Two kinds of protection:

* a deterministic gate: heavy kernel runs with collection off must
  leave the registry byte-for-byte empty (any metric object appearing
  means an instrumentation site lost its ``if _OBS.enabled`` guard and
  is now paying on every run);
* a generous wall-clock ratio bound on the same publish-heavy
  workload in both modes — disabled mode does strictly less work than
  enabled mode, so a disabled run that costs significantly *more* than
  an enabled one signals work leaking ahead of the guard.
"""

import time

from repro.obs import metrics
from repro.sim import Simulator


def _publish_heavy(n_runs: int = 120, events_per_run: int = 50) -> int:
    """Many short ``run()`` calls: the publish boundary dominates.

    One long run amortizes the end-of-run publish into noise; this
    shape hits the boundary ``n_runs`` times, which is exactly where
    enabled-mode cost lives — and where disabled mode must pay only
    the guard.
    """
    sim = Simulator()
    executed = 0
    for _ in range(n_runs):
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < events_per_run:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        sim.run()
        executed += count
    return executed


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_run_leaves_registry_untouched():
    """The deterministic guard-drop detector."""
    prior = metrics.REGISTRY.enabled
    metrics.REGISTRY.reset()
    metrics.REGISTRY.enabled = False
    try:
        assert _publish_heavy() == 120 * 50
        assert metrics.REGISTRY.is_empty()
    finally:
        metrics.REGISTRY.enabled = prior


def test_disabled_mode_not_slower_than_enabled():
    """Disabled does strictly less work; a big inversion means cost
    leaked ahead of the ``if _OBS.enabled`` guard.  The bound is loose
    (1.5x on best-of-5 minima) because both sides are fast and CI
    timers are noisy — this catches structural regressions, not
    percentage drift.
    """
    prior = metrics.REGISTRY.enabled
    try:
        metrics.REGISTRY.enabled = False
        disabled = _best_of(_publish_heavy)

        def run_enabled():
            with metrics.collecting(reset=True):
                return _publish_heavy()

        enabled = _best_of(run_enabled)
        assert run_enabled() == 120 * 50
    finally:
        metrics.REGISTRY.enabled = prior
        metrics.REGISTRY.reset()
    assert disabled <= enabled * 1.5, (
        f"metrics-disabled run ({disabled:.4f}s) is much slower than "
        f"the enabled run ({enabled:.4f}s): is work happening before "
        f"the enabled-flag guard?"
    )
