"""Hierarchical design layer: components, typed ports, elaboration.

The circuit library historically built netlists by calling element
constructors directly against a simulator (``sim.signal`` / ``sim.bus``
factories wired by hand).  That works, but nothing can address, trace or
analyze the result *by structure* — there is only a flat namespace of
net-name strings.  This module adds the missing structural layer:

* :class:`Component` — a node in a named instance tree.  Every element
  and link module in the library now inherits from it, so any circuit
  (legacy-built or declaratively described) is a walkable tree of
  instances with dotted paths like ``i3.s2a.flag0.a``.
* :class:`Port` — a typed connection point (direction ``in``/``out``,
  scalar or ``width``-bit bus).  Declarative components declare ports
  with :meth:`Component.port_in` / :meth:`Component.port_out`, connect
  them with :meth:`Component.connect` (direction- and width-checked),
  and receive resolved nets at elaboration.
* :meth:`Component.elaborate` — builds the described tree onto a
  simulator **through the factory seam** (``sim.signal``/``sim.bus``),
  so the same description elaborates onto either the optimized kernel
  (:mod:`repro.sim`) or the frozen seed kernel
  (:mod:`repro.sim.reference`), and every net is auto-named by its
  hierarchy path.

Two construction styles therefore coexist:

* **eager** — the classic element constructors (``Inverter(sim, a)``)
  build immediately; the instance registers itself as an elaborated
  Component so the tree exists even for legacy code paths;
* **declarative** — subclass :class:`Component`, declare ports and
  children in ``__init__``, wire them with ``connect``, and implement
  :meth:`Component.build` to place leaf elements; nothing touches a
  simulator until ``elaborate(sim)``.

The two styles compose: a declarative ``build`` typically instantiates
eager elements with path-derived names (:meth:`Component.sub`) and
adopts them (:meth:`Component.adopt`).
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple


class DesignError(ValueError):
    """Illegal hierarchy operation: bad connection, unknown path, etc."""


#: directions a port may declare; ``inout`` is reserved for eagerly
#: built components exposing handshake nets whose flow direction is a
#: property of the protocol, not the port (e.g. a Channel's ack wire)
_DIRECTIONS = ("in", "out", "inout")


class _NetGroup:
    """Union-find group of ports that resolve to one shared net."""

    __slots__ = ("_parent", "ports", "driver", "feed", "bound", "net")

    def __init__(self, port: "Port") -> None:
        self._parent: Optional[_NetGroup] = None
        self.ports: List[Port] = [port]
        #: the child ``out`` port driving the group, if known yet
        self.driver: Optional[Port] = None
        #: the shallowest ``in`` port feeding the group from above (a
        #: provisional source: a shallower feed or the real driver of
        #: the value entering that port supersedes it)
        self.feed: Optional[Port] = None
        #: an externally supplied net bound via :meth:`Component.bind`
        self.bound = None
        self.net = None

    def root(self) -> "_NetGroup":
        group = self
        while group._parent is not None:
            group = group._parent
        # path compression
        if group is not self:
            node = self
            while node._parent is not group:
                nxt = node._parent
                node._parent = group
                node = nxt
        return group

    def merge(self, other: "_NetGroup") -> "_NetGroup":
        a, b = self.root(), other.root()
        if a is b:
            return a
        if a.driver is not None and b.driver is not None \
                and a.driver is not b.driver:
            raise DesignError(
                f"net would have two drivers: "
                f"{a.driver.describe()} and {b.driver.describe()}"
            )
        if a.bound is not None and b.bound is not None \
                and a.bound is not b.bound:
            raise DesignError(
                "net would bind two different existing nets "
                f"({getattr(a.bound, 'name', a.bound)!r} and "
                f"{getattr(b.bound, 'name', b.bound)!r})"
            )
        b._parent = a
        a.ports.extend(b.ports)
        a.driver = a.driver or b.driver
        if a.feed is None:
            a.feed = b.feed
        elif b.feed is not None \
                and b.feed.component.tree_depth \
                < a.feed.component.tree_depth:
            a.feed = b.feed
        a.bound = a.bound if a.bound is not None else b.bound
        a.net = a.net if a.net is not None else b.net
        return a


class Port:
    """A typed connection point on a :class:`Component`.

    ``width == 1`` is a scalar port resolving to a
    :class:`~repro.sim.signal.Signal`; wider ports resolve to a
    :class:`~repro.sim.signal.Bus`.  Eagerly built components construct
    ports with ``net`` already resolved (pure metadata); declarative
    ports resolve at elaboration, named by the hierarchy path of the
    group's driving (or first-declared) port.
    """

    __slots__ = ("component", "name", "direction", "width", "group", "_net")

    def __init__(
        self,
        component: "Component",
        name: str,
        direction: str,
        width: int = 1,
        net=None,
    ) -> None:
        if direction not in _DIRECTIONS:
            raise DesignError(
                f"port direction must be one of {_DIRECTIONS}, "
                f"got {direction!r}"
            )
        if width < 1:
            raise DesignError(f"port width must be >= 1, got {width}")
        self.component = component
        self.name = name
        self.direction = direction
        self.width = width
        self._net = net
        self.group: Optional[_NetGroup] = (
            None if net is not None else _NetGroup(self)
        )

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        return f"{self.component.path}.{self.name}"

    def describe(self) -> str:
        return f"{self.path} ({self.direction}, width {self.width})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Port({self.describe()})"

    # ------------------------------------------------------------------
    @property
    def net(self):
        """The resolved Signal/Bus (only after elaboration/binding)."""
        if self._net is not None:
            return self._net
        group = self.group.root()
        if group.net is None:
            raise DesignError(
                f"port {self.describe()} is not elaborated yet"
            )
        return group.net

    def resolve(self, sim) -> None:
        """Create (or adopt) the group's net on ``sim`` if not done yet."""
        if self._net is not None:
            return
        group = self.group.root()
        if group.net is not None:
            return
        if group.bound is not None:
            group.net = group.bound
            self._check_width(group.net, "bound net")
            return
        namer = group.driver or min(
            group.ports, key=lambda p: p.component.tree_depth
        )
        if self.width == 1:
            group.net = sim.signal(namer.path)
        else:
            group.net = sim.bus(self.width, namer.path)

    def _check_width(self, net, what: str) -> None:
        net_width = len(getattr(net, "signals", ())) or 1
        if net_width != self.width:
            raise DesignError(
                f"{what} has width {net_width} but port "
                f"{self.describe()} expects {self.width}"
            )


_SEGMENT_RE = re.compile(r"^([^\[\]]+)((?:\[\d+\])*)$")
_INDEX_RE = re.compile(r"\[(\d+)\]")


def _parse_segment(segment: str) -> Tuple[str, Tuple[int, ...]]:
    """Split ``"node[1][2]"`` into ``("node", (1, 2))``."""
    match = _SEGMENT_RE.match(segment)
    if not match:
        raise DesignError(f"malformed path segment {segment!r}")
    base, brackets = match.groups()
    return base, tuple(int(i) for i in _INDEX_RE.findall(brackets))


class Component:
    """A node in the hierarchical design tree.

    Every instance has a leaf name, an optional parent, ordered children
    and declared ports.  The dotted instance path
    (``mesh.node[1][2].link``) is the stable structural address used by
    :meth:`find`, fault injection, the activity monitor's per-instance
    groups and the hierarchical VCD scopes.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        #: display name; eager legacy components pass their full dotted
        #: net-name prefix here, declarative components a leaf name
        self.name: str = name if name else type(self).__name__.lower()
        self.parent: Optional["Component"] = None
        self.sim = None
        self._leaf: str = self.name
        self._children: Dict[str, Component] = {}
        self._ports: Dict[str, Port] = {}
        self._elaborated: bool = False

    # ------------------------------------------------------------------
    # tree structure
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """Dotted instance path from the root of the tree."""
        if self.parent is None:
            return self._leaf
        return f"{self.parent.path}.{self._leaf}"

    @property
    def tree_depth(self) -> int:
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def children(self) -> Dict[str, "Component"]:
        """Leaf-name → child mapping (insertion order preserved)."""
        return dict(self._children)

    @property
    def ports(self) -> Dict[str, Port]:
        """Declared ports by name (insertion order preserved)."""
        return dict(self._ports)

    def add(self, leaf: str, child: "Component") -> "Component":
        """Register ``child`` under ``leaf`` (declarative children)."""
        if leaf in self._children:
            raise DesignError(
                f"{self.path!r} already has a child named {leaf!r}"
            )
        if child.parent is not None:
            raise DesignError(
                f"{child.name!r} already belongs to {child.parent.path!r}"
            )
        child.parent = self
        child._leaf = leaf
        self._children[leaf] = child
        return child

    def adopt(self, child: "Component", leaf: Optional[str] = None
              ) -> "Component":
        """Register an eagerly built ``child``, deriving its leaf name.

        Legacy constructors name sub-components ``f"{name}.seq"`` etc.;
        adoption strips the parent's own prefix so the tree path equals
        the historical flat net-name prefix exactly — nothing about the
        built circuit changes, it only becomes addressable.
        """
        if leaf is None:
            # eager parents prefix children with their historical dotted
            # name; declarative parents with their tree path (via sub())
            leaf = child.name
            for prefix in (f"{self.name}.", f"{self.path}."):
                if child.name.startswith(prefix):
                    candidate = child.name[len(prefix):]
                    if len(candidate) < len(leaf):
                        leaf = candidate
        child._elaborated = True
        return self.add(leaf, child)

    def sub(self, leaf: str) -> str:
        """The dotted name for a child/net named ``leaf`` under this
        instance — the naming convention shared with the legacy
        constructors (``f"{name}.{leaf}"``)."""
        return f"{self.path}.{leaf}"

    def walk(self) -> Iterator[Tuple[str, "Component"]]:
        """Yield ``(path, component)`` pre-order over the subtree."""
        yield self.path, self
        for child in self._children.values():
            yield from child.walk()

    # ------------------------------------------------------------------
    # ports
    # ------------------------------------------------------------------
    def _declare(self, name: str, direction: str, width: int,
                 net=None) -> Port:
        if name in self._ports:
            raise DesignError(
                f"{self.path!r} already declares a port {name!r}"
            )
        if self._elaborated and net is None:
            raise DesignError(
                f"cannot declare unresolved port {name!r} on the "
                f"already-elaborated {self.path!r}"
            )
        port = Port(self, name, direction, width, net)
        self._ports[name] = port
        return port

    def port_in(self, name: str, width: int = 1) -> Port:
        """Declare an input port (resolved to a net at elaboration)."""
        return self._declare(name, "in", width)

    def port_out(self, name: str, width: int = 1) -> Port:
        """Declare an output port (resolved to a net at elaboration)."""
        return self._declare(name, "out", width)

    def expose(self, name: str, net, direction: str = "inout") -> Port:
        """Register an already-built net as a typed port (eager style)."""
        width = len(getattr(net, "signals", ())) or 1
        return self._declare(name, direction, width, net)

    def bind(self, port: Port, net) -> None:
        """Attach an existing net to a declarative ``port`` — the seam
        for elaborating a described subtree into a legacy-built
        circuit."""
        if port._net is not None:
            raise DesignError(
                f"port {port.describe()} already carries a net"
            )
        port._check_width(net, "bound net")
        group = port.group.root()
        if group.bound is not None and group.bound is not net:
            raise DesignError(
                f"port {port.describe()} is already bound to "
                f"{getattr(group.bound, 'name', group.bound)!r}"
            )
        group.bound = net

    def net(self, port_name: str):
        """The resolved net of one of this component's ports."""
        try:
            return self._ports[port_name].net
        except KeyError:
            raise DesignError(
                f"{self.path!r} has no port {port_name!r}; declared: "
                f"{sorted(self._ports) or 'none'}"
            ) from None

    # ------------------------------------------------------------------
    # connection (declarative)
    # ------------------------------------------------------------------
    def _relation(self, port: Port) -> str:
        if port.component is self:
            return "self"
        if port.component.parent is self:
            return "child"
        raise DesignError(
            f"{port.describe()} is not a port of {self.path!r} "
            f"or of one of its direct children"
        )

    def connect(self, src: Port, dst: Port) -> None:
        """Wire ``src`` into ``dst`` with direction and width checking.

        Legal in the scope of ``self``: a child's ``out`` into a sibling
        child's ``in`` or up into one of this component's ``out`` ports;
        one of this component's ``in`` ports down into a child's ``in``
        or through to an own ``out`` (feedthrough).
        """
        if not isinstance(src, Port) or not isinstance(dst, Port):
            raise DesignError("connect() takes two Port objects")
        if src.width != dst.width:
            raise DesignError(
                f"width mismatch: {src.describe()} vs {dst.describe()}"
            )
        src_rel, dst_rel = self._relation(src), self._relation(dst)
        drives = src.direction == "out" and src_rel == "child"
        imports = src.direction == "in" and src_rel == "self"
        if not (drives or imports):
            raise DesignError(
                f"{src.describe()} cannot drive anything in the scope "
                f"of {self.path!r}: sources are a child's 'out' port or "
                f"this component's own 'in' port"
            )
        sinks_ok = (
            (dst_rel == "child" and dst.direction == "in")
            or (dst_rel == "self" and dst.direction == "out")
        )
        if not sinks_ok:
            raise DesignError(
                f"{dst.describe()} cannot be driven in the scope of "
                f"{self.path!r}: sinks are a child's 'in' port or this "
                f"component's own 'out' port"
            )
        if src._net is not None or dst._net is not None:
            raise DesignError(
                "connect() wires declarative ports; "
                f"{(src if src._net is not None else dst).describe()} "
                "already carries a built net (use bind/wire instead)"
            )
        # source conflicts are checked BEFORE merging: a rejected
        # connection must leave both net groups untouched.  A net has
        # one value origin — either a child's 'out' port (the driver)
        # or the shallowest 'in' port it enters the hierarchy through
        # (the feed; a shallower feed, or the driver of the value
        # reaching that port, legitimately supersedes it).
        src_root = src.group.root()
        dst_root = dst.group.root()
        if drives:
            for root in (src_root, dst_root):
                if root.driver is not None and root.driver is not src:
                    raise DesignError(
                        f"net already driven by "
                        f"{root.driver.describe()}; cannot also "
                        f"connect driver {src.describe()}"
                    )
            for root in (src_root, dst_root):
                feed = root.feed
                # a feed that is the very port being driven (a child's
                # input chain now receiving its value) or that flows
                # through the driving component itself is upstream of
                # this driver, not a second source
                if (feed is not None and feed is not dst
                        and feed.component is not src.component):
                    raise DesignError(
                        f"net already fed by the input "
                        f"{feed.describe()}; cannot also connect "
                        f"driver {src.describe()}"
                    )
        else:  # imports: self.in feeding downward/through
            if (dst_root.driver is not None
                    and dst_root is not src_root
                    and dst_root.driver is not src_root.driver):
                raise DesignError(
                    f"{dst.describe()} is already driven by "
                    f"{dst_root.driver.describe()}; the input "
                    f"{src.describe()} cannot also feed it"
                )
            feed = dst_root.feed
            if (feed is not None and feed is not src
                    and dst_root is not src_root
                    and feed.component.tree_depth
                    <= src.component.tree_depth):
                raise DesignError(
                    f"{dst.describe()} is already fed by the input "
                    f"{feed.describe()}; the input {src.describe()} "
                    f"cannot also feed it"
                )
        group = src.group.merge(dst.group)
        if drives:
            group.driver = src
            group.feed = None if group.feed is dst else group.feed
        elif group.feed is None or src.component.tree_depth \
                < group.feed.component.tree_depth:
            group.feed = src

    # ------------------------------------------------------------------
    # elaboration
    # ------------------------------------------------------------------
    def build(self, sim) -> None:
        """Hook: place leaf elements / processes.  Default: nothing.

        Called exactly once per component during :meth:`elaborate`, after
        this component's declared ports have resolved to nets (access
        them with :meth:`net`).  Eagerly built components did their work
        in ``__init__`` and keep the default no-op.
        """

    def elaborate(self, sim) -> "Component":
        """Build the described tree onto ``sim`` and return ``self``.

        Works against any simulator implementing the construction
        factories (``signal``/``bus``/``bus_view``/``spawn``) — the
        optimized kernel and the frozen seed kernel both do.
        """
        if self.parent is not None:
            raise DesignError(
                f"elaborate from the tree root, not {self.path!r}"
            )
        if self._elaborated:
            raise DesignError(f"{self.path!r} is already elaborated")
        for _path, comp in self.walk():
            comp.sim = sim
        self._elaborate_tree(sim)
        return self

    def _elaborate_tree(self, sim) -> None:
        self.sim = sim
        for port in self._ports.values():
            port.resolve(sim)
        if not self._elaborated:
            self._elaborated = True
            self.build(sim)
        for child in list(self._children.values()):
            if not child._elaborated:
                child._elaborate_tree(sim)

    # ------------------------------------------------------------------
    # path addressing
    # ------------------------------------------------------------------
    def find(self, path: str):
        """Resolve a dotted path to a component, port net, or net.

        Each segment is matched against (in order) an exact child key,
        a child/port/attribute base name with ``[index]`` suffixes
        applied to the result.  ``find("")`` returns ``self``.
        """
        target: object = self
        if not path:
            return target
        for segment in path.split("."):
            target = _resolve_segment(target, segment, path)
        return target

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def tree(self, ports: bool = True) -> str:
        """ASCII rendering of the instance subtree."""
        lines: List[str] = [self._label(ports)]
        self._render(lines, "", ports)
        return "\n".join(lines)

    def _describe_ports(self) -> str:
        if not self._ports:
            return ""
        parts = []
        for port in self._ports.values():
            width = "" if port.width == 1 else f"[{port.width}]"
            parts.append(f"{port.name}{width}:{port.direction}")
        return "  (" + ", ".join(parts) + ")"

    def _label(self, ports: bool) -> str:
        label = f"{self._leaf} <{type(self).__name__}>"
        return label + (self._describe_ports() if ports else "")

    def _render(self, lines: List[str], prefix: str, ports: bool) -> None:
        kids = list(self._children.values())
        for i, child in enumerate(kids):
            last = i == len(kids) - 1
            lines.append(
                prefix + ("└─ " if last else "├─ ") + child._label(ports)
            )
            child._render(lines, prefix + ("   " if last else "│  "), ports)


def _nearest_paths(target: "Component", base: str,
                   limit: int = 3) -> List[str]:
    """Closest child/port paths to a mistyped segment, best first.

    Suggestions are full dotted paths (the same form lint findings and
    force/inspect use), so an error message can be pasted straight back
    into ``find``.
    """
    import difflib

    candidates = {
        leaf: child.path for leaf, child in target._children.items()
    }
    for name, port in target._ports.items():
        candidates.setdefault(name, port.path)
    matches = difflib.get_close_matches(
        base, list(candidates), n=limit, cutoff=0.5
    )
    return [candidates[m] for m in matches]


def _resolve_segment(target: object, segment: str, full_path: str):
    base, indices = _parse_segment(segment)
    resolved = None
    if isinstance(target, Component):
        if segment in target._children:
            return target._children[segment]
        if base in target._children:
            resolved = target._children[base]
        elif base in target._ports:
            resolved = target._ports[base].net
        else:
            resolved = getattr(target, base, None)
    else:
        resolved = getattr(target, base, None)
        if resolved is None and hasattr(target, "__getitem__") \
                and not indices:
            raise DesignError(
                f"cannot resolve {segment!r} in {full_path!r}: "
                f"{target!r} has no attribute {base!r}"
            )
    if resolved is None:
        hints = ""
        if isinstance(target, Component):
            nearest = _nearest_paths(target, base)
            if nearest:
                hints = "; did you mean " + ", ".join(
                    repr(p) for p in nearest
                ) + "?"
            else:
                hints = (
                    f"; children: {sorted(target._children) or 'none'}, "
                    f"ports: {sorted(target._ports) or 'none'}"
                )
        raise DesignError(
            f"cannot resolve {segment!r} while walking {full_path!r} "
            f"from {getattr(target, 'path', target)!r}{hints}"
        )
    for index in indices:
        try:
            resolved = resolved[index]
        except (TypeError, IndexError, KeyError) as exc:
            raise DesignError(
                f"cannot index {segment!r} in {full_path!r}: {exc}"
            ) from None
    return resolved
