"""Wall-clock gate for the static analyzer.

Lint runs as a sweep pre-flight and a CI smoke job, so a full-registry
pass has to stay interactive: the acceptance budget is five seconds
for every registered scenario, rules, waiver matching and rendering
included.  The hard assert keeps the pre-flight honest even on a
loaded machine.
"""

import time

from repro.lint import format_text, lint_registry, load_waivers

WAIVERS = "lint-waivers.toml"


def _full_registry_lint():
    reports = lint_registry(waivers=load_waivers(WAIVERS))
    format_text(reports)
    return reports


def test_full_registry_lint_under_five_seconds():
    t0 = time.perf_counter()
    reports = _full_registry_lint()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"full-registry lint took {elapsed:.2f}s"
    assert reports  # the registry is never empty
    assert all(r.worst != "error" for r in reports)
