"""The :class:`Design` handle: an elaborated tree plus its simulator.

``Design`` is what experiments and the CLI hold onto: path-addressed
probing (:meth:`Design.find`), testbench overrides
(:meth:`Design.force` / :meth:`Design.release` — stuck-at faults by
instance path), net inventory keyed by owning instance, and tree
rendering for ``repro inspect``.

It wraps either construction style: a declarative tree (elaborate it
here via :meth:`Design.elaborate`) or a legacy eagerly built circuit
(pass the already-built root and its simulator).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .component import Component, DesignError


def _is_bus(net) -> bool:
    return getattr(net, "signals", None) is not None


class Design:
    """An instance tree bound (or bindable) to a simulator."""

    def __init__(self, top: Component, sim=None,
                 watched: Optional[List[str]] = None) -> None:
        if not isinstance(top, Component):
            raise DesignError(
                f"Design wraps a Component tree, got {type(top).__name__}"
            )
        self.top = top
        self.sim = sim if sim is not None else top.sim
        #: net names the experiment observes (bench outputs, scoreboard
        #: taps); the lint dead-cone rule treats these as live roots in
        #: addition to the root component's output ports
        self.watched: List[str] = list(watched or [])

    # ------------------------------------------------------------------
    def elaborate(self, sim) -> "Design":
        """Elaborate the wrapped tree onto ``sim`` (either kernel)."""
        self.top.elaborate(sim)
        self.sim = sim
        return self

    @property
    def is_elaborated(self) -> bool:
        return self.sim is not None

    # ------------------------------------------------------------------
    # path addressing
    # ------------------------------------------------------------------
    def find(self, path: str):
        """Resolve ``path`` relative to the top instance.

        The leading segment may name the top instance itself (so paths
        copied from net names, e.g. ``"i3.s2a.stall"``, resolve without
        stripping).
        """
        top_leaf = self.top._leaf
        if path == top_leaf:
            return self.top
        if path.startswith(top_leaf + "."):
            path = path[len(top_leaf) + 1:]
        return self.top.find(path)

    def _net_at(self, path: str):
        net = self.find(path)
        if _is_bus(net) or hasattr(net, "force"):
            return net
        raise DesignError(
            f"{path!r} resolves to {type(net).__name__}, not a net; "
            f"point force/release at a Signal or Bus"
        )

    def force(self, path: str, value: int) -> None:
        """Force the net at ``path`` to ``value`` until :meth:`release`.

        A scalar net takes 0/1; a bus takes an integer forced bit by
        bit — the path-addressed equivalent of a stuck-at fault or a
        simulator ``force`` command.
        """
        net = self._net_at(path)
        if _is_bus(net):
            width = net.width
            if value < 0 or value >= (1 << width):
                raise DesignError(
                    f"value {value:#x} does not fit the {width}-bit bus "
                    f"at {path!r}"
                )
            for i, sig in enumerate(net.signals):
                sig.force((value >> i) & 1)
        else:
            net.force(value)

    def release(self, path: str) -> None:
        """Remove a :meth:`force` from the net at ``path``."""
        net = self._net_at(path)
        if _is_bus(net):
            for sig in net.signals:
                sig.release()
        else:
            net.release()

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def instances(self) -> List[Tuple[str, Component]]:
        """Every (path, component) in the tree, pre-order."""
        return list(self.top.walk())

    def _prefix_map(self) -> Dict[str, str]:
        """Name-prefix → instance-path lookup for net ownership.

        Eagerly built components name their nets with their historical
        dotted prefix (``comp.name``), declarative ports with the tree
        path — both resolve to the same instance here.
        """
        prefixes: Dict[str, str] = {}
        for path, comp in self.top.walk():
            prefixes.setdefault(path, path)
            # when a wrapper shares its net-name prefix with an inner
            # component (the I1 link and its pipeline are both "i1"),
            # the deepest instance owns the nets — it created them
            existing = prefixes.get(comp.name)
            if existing is None or len(path) >= len(existing):
                prefixes[comp.name] = path
        return prefixes

    def nets_by_instance(self) -> Dict[str, list]:
        """Created nets grouped by their owning instance path.

        Ownership is by longest matching instance-name prefix of the
        net's name — the library names every net by the instance that
        created it, so this recovers the structural grouping without
        per-class bookkeeping.  Nets whose names match no instance are
        grouped under ``""`` (testbench-level nets).
        """
        if self.sim is None:
            raise DesignError("design is not elaborated yet")
        prefixes = self._prefix_map()
        grouped: Dict[str, list] = {}
        for sig in self.sim.created_signals:
            grouped.setdefault(
                owner_path(sig.name, prefixes), []
            ).append(sig)
        return grouped

    # ------------------------------------------------------------------
    def tree(self, ports: bool = True) -> str:
        """ASCII instance tree (the ``repro inspect --tree`` payload)."""
        return self.top.tree(ports=ports)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "elaborated" if self.is_elaborated else "described"
        return f"Design({self.top.path!r}, {state})"


def owner_path(net_name: str, prefixes: Dict[str, str]) -> str:
    """Longest name prefix of ``net_name`` owning it ('' if none).

    ``prefixes`` maps instance name-prefixes to instance paths (see
    :meth:`Design._prefix_map`).  A net ``i3.s2a.flag0.a`` belongs to
    instance ``i3.s2a.flag0`` when that prefix exists, else
    ``i3.s2a``, else ``i3`` — bit suffixes like ``[5]`` and leaf net
    names fall through naturally.
    """
    candidate = net_name
    while candidate:
        cut = candidate.rfind(".")
        candidate = candidate[:cut] if cut >= 0 else ""
        if candidate in prefixes:
            return prefixes[candidate]
    return ""
