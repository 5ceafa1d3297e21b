"""One module per paper table/figure, plus ablations and extensions.

Importing this package registers every experiment with the scenario
registry (:mod:`repro.runner.registry`) — the modules register
themselves via the ``@scenario`` decorator, nothing enumerates them by
hand.  To run them, query the registry (``registry.find(tags=("paper",))``)
or use ``python -m repro run``.
"""

from .common import Check, ExperimentResult, resolve_tech

# importing the modules is what populates the registry
from . import ablation, fig10, fig11, fig12, fig13, fig14, table1, table2
from . import throughput, wirelength, mesh_design_space, traffic_patterns
from . import fault_injection, gals_mesh, compiled_campaign, noop

__all__ = [
    "Check",
    "ExperimentResult",
    "resolve_tech",
    "ablation",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table1",
    "table2",
    "throughput",
    "wirelength",
    "mesh_design_space",
    "traffic_patterns",
    "fault_injection",
    "gals_mesh",
    "compiled_campaign",
    "noop",
]
