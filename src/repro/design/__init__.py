"""Hierarchical design API: components, ports, elaboration, designs.

Public surface:

* :class:`Component` / :class:`Port` — the instance tree and its typed
  connection points (declare with ``port_in``/``port_out``, wire with
  ``connect``, direction- and width-checked);
* :class:`Design` — an elaborated tree bound to a simulator:
  ``find(path)`` / ``force(path, v)`` / ``release(path)`` probing, net
  inventory by instance, tree rendering;
* :class:`LinkBench` / :func:`link_design` — the paper's link
  testbench as a declarative design (elaborates onto either kernel);
* :class:`MeshDesign` — path-addressable structural view of a
  behavioural NoC mesh (fault campaigns, clock-domain assignment).

See README "Design API" for a build→connect→elaborate walkthrough.
"""

from .component import Component, DesignError, Port
from .design import Design, owner_path

# The library/mesh layers wrap repro.link and repro.noc, which in turn
# import repro.elements — and every element class imports
# repro.design.component.  Loading them lazily keeps that cycle open:
# ``repro.design`` itself depends only on the standard library.
_LAZY = {
    "LinkBench": ("library", "LinkBench"),
    "link_design": ("library", "link_design"),
    "MeshDesign": ("mesh", "MeshDesign"),
    "MeshLink": ("mesh", "MeshLink"),
    "MeshNode": ("mesh", "MeshNode"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), attr)


__all__ = [
    "Component",
    "DesignError",
    "Port",
    "Design",
    "owner_path",
    "LinkBench",
    "link_design",
    "MeshDesign",
    "MeshLink",
    "MeshNode",
]
