"""Decorator-based scenario registration.

A scenario is a callable ``func(tech=None, **params) -> ExperimentResult``
registered under a stable id with a description, tags and a typed
parameter spec.  Registration happens at import time::

    from repro.runner.registry import ParamSpec, scenario

    @scenario(
        "fig12",
        description="Fig 12 — link power vs buffer count",
        tags=("paper", "figure", "analytical"),
        params=(ParamSpec("freq_mhz", float, 100.0),),
    )
    def run(tech=None, freq_mhz=100.0):
        ...

The registry is process-global; :func:`load_builtin` imports every
built-in experiment module so worker processes see the same catalogue
as the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)


class ScenarioError(ValueError):
    """Unknown id, duplicate registration, or bad parameter value."""


_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _coerce_bool(raw: object) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ScenarioError(f"cannot interpret {raw!r} as a boolean")


@dataclass(frozen=True)
class ParamSpec:
    """One typed, sweepable scenario parameter.

    ``sweep`` lists the default axis values used when the scenario is
    swept without an explicit grid (empty = not swept by default).
    """

    name: str
    type: type
    default: object
    help: str = ""
    choices: Optional[Tuple[object, ...]] = None
    sweep: Tuple[object, ...] = ()

    def coerce(self, raw: object) -> object:
        """Parse/validate a (possibly string) value for this parameter."""
        try:
            if self.type is bool:
                value = _coerce_bool(raw)
            elif isinstance(raw, self.type):
                value = raw
            else:
                value = self.type(raw)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"parameter {self.name!r}: cannot convert {raw!r} "
                f"to {self.type.__name__}"
            ) from exc
        if self.choices is not None and value not in self.choices:
            raise ScenarioError(
                f"parameter {self.name!r}: {value!r} not in "
                f"allowed choices {self.choices}"
            )
        return value


@dataclass
class Scenario:
    """A registered workload: id, metadata, and the callable itself."""

    id: str
    description: str
    func: Callable[..., object]
    tags: frozenset = frozenset()
    params: Tuple[ParamSpec, ...] = ()
    #: parameter overrides applied in fast (no gate-level sim) mode
    fast_params: Dict[str, object] = field(default_factory=dict)
    #: scenario cannot produce a meaningful fast-mode result at all
    fast_skip: bool = False
    #: optional hook ``design(tech=None, **params) -> repro.design.Design``
    #: exposing the scenario's elaborated instance tree (CLI ``inspect``)
    design: Optional[Callable[..., object]] = None
    #: optional batched executor
    #: ``batch(tech=None, param_sets=[{...}, ...]) -> [ExperimentResult]``
    #: — requests that differ only in ``batch_axis`` pack into one call,
    #: so the hook may share work across its group (the compiled
    #: backend runs them as bit-parallel lanes; fault-injection shares
    #: one healthy reference run); must return one result per param
    #: set, each identical to a solo run
    batch: Optional[Callable[..., object]] = None
    #: the parameter along which requests may be packed together
    batch_axis: str = "seed"
    #: maximum requests per batched call (compiled backends: the lanes
    #: one word holds; otherwise the group the hook shares work over)
    batch_lanes: int = 64
    #: optional work estimate ``cost(params) -> float`` of one point,
    #: given its resolved parameters (fast-mode overrides applied).  It
    #: only orders work: pools and fabric workers start the costliest
    #: items first, while outcomes, journals and artifacts keep grid
    #: order.  Only ratios between points matter; a missing hook, a
    #: value that is not > 0 or a raising hook counts as 0
    cost: Optional[Callable[[Dict[str, object]], float]] = None

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise ScenarioError(
            f"scenario {self.id!r} has no parameter {name!r}; "
            f"declared: {[p.name for p in self.params] or 'none'}"
        )

    def defaults(self) -> Dict[str, object]:
        return {spec.name: spec.default for spec in self.params}

    def resolve_params(
        self,
        overrides: Optional[Dict[str, object]] = None,
        fast: bool = False,
    ) -> Dict[str, object]:
        """Defaults, then fast-mode overrides, then explicit overrides."""
        params = self.defaults()
        if fast:
            params.update(self.fast_params)
        for name, raw in (overrides or {}).items():
            params[name] = self.param(name).coerce(raw)
        return params

    @property
    def has_design(self) -> bool:
        return self.design is not None

    @property
    def has_batch(self) -> bool:
        return self.batch is not None

    def design_for(
        self,
        tech=None,
        overrides: Optional[Dict[str, object]] = None,
        fast: bool = False,
    ):
        """Build the scenario's design tree with resolved parameters."""
        if self.design is None:
            raise ScenarioError(
                f"scenario {self.id!r} exposes no design tree"
            )
        return self.design(
            tech=tech, **self.resolve_params(overrides, fast)
        )


_REGISTRY: Dict[str, Scenario] = {}


def scenario(
    id: str,
    *,
    description: str,
    tags: Iterable[str] = (),
    params: Sequence[ParamSpec] = (),
    fast_params: Optional[Dict[str, object]] = None,
    fast_skip: bool = False,
    design: Optional[Callable[..., object]] = None,
    batch: Optional[Callable[..., object]] = None,
    batch_axis: str = "seed",
    batch_lanes: int = 64,
    cost: Optional[Callable[[Dict[str, object]], float]] = None,
) -> Callable[[Callable], Callable]:
    """Register the decorated function as a scenario; returns it unchanged."""

    def decorate(func: Callable) -> Callable:
        existing = _REGISTRY.get(id)
        if existing is not None:
            same_origin = (
                getattr(existing.func, "__module__", None)
                == getattr(func, "__module__", None)
                and getattr(existing.func, "__qualname__", None)
                == getattr(func, "__qualname__", None)
            )
            # a module re-import (importlib.reload) re-runs its own
            # decorator; that is idempotent, everything else is a clash
            if not same_origin:
                raise ScenarioError(
                    f"scenario id {id!r} already registered by "
                    f"{existing.func.__module__}"
                )
        _REGISTRY[id] = Scenario(
            id=id,
            description=description,
            func=func,
            tags=frozenset(tags),
            params=tuple(params),
            fast_params=dict(fast_params or {}),
            fast_skip=fast_skip,
            design=design,
            batch=batch,
            batch_axis=batch_axis,
            batch_lanes=batch_lanes,
            cost=cost,
        )
        return func

    return decorate


def get(id: str) -> Scenario:
    try:
        return _REGISTRY[id]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {id!r}; registered: {', '.join(ids()) or 'none'}"
        ) from None


def ids() -> List[str]:
    """Registered scenario ids, in registration order."""
    return list(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    return list(_REGISTRY.values())


def find(tags: Iterable[str] = ()) -> List[Scenario]:
    """Scenarios carrying *every* given tag (all scenarios if none given)."""
    wanted = frozenset(tags)
    return [s for s in _REGISTRY.values() if wanted <= s.tags]


def unregister(id: str) -> None:
    """Remove a scenario (test hook; built-ins re-register on load)."""
    _REGISTRY.pop(id, None)


def load_builtin() -> List[str]:
    """Import every built-in experiment module, triggering registration.

    Safe to call repeatedly and from worker processes; returns the
    registered ids.
    """
    from .. import experiments  # noqa: F401  (import side effect)

    return ids()
