"""Pluggable precharge-policy registry and declarative policy specs.

The paper evaluates a fixed menu of precharge schemes, but the driver
layer should not hard-code that menu: new policies (drowsy bitlines,
way-predicting gates, hybrid schemes, ...) must be addable without
touching :mod:`repro.sim`.  This module provides the extension point:

* :func:`register_policy` — decorator that publishes a policy factory
  under a short name (plus aliases), recording its parameter defaults
  and any scheduler-visible latency it adds;
* :class:`PolicySpec` — a hashable, serialisable ``(name, params)``
  description of one policy instance.  :class:`~repro.sim.SimulationConfig`
  carries two of these, and the run-memoisation key is derived from the
  spec's canonical form, so registration is the *only* step a new policy
  needs.

Example::

    from repro.core.registry import PolicySpec, register_policy

    @register_policy("drowsy", aliases=("drowsy-bitline",))
    def make_drowsy(wake_cycles: int = 2):
        return DrowsyBitlinePolicy(wake_cycles=wake_cycles)

    spec = PolicySpec("drowsy", {"wake_cycles": 3})
    policy = spec.build()
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple, Union

__all__ = [
    "PolicyInfo",
    "PolicySpec",
    "UnknownPolicyError",
    "register_policy",
    "unregister_policy",
    "get_policy_info",
    "policy_names",
    "create_policy",
]


class UnknownPolicyError(ValueError):
    """A policy name that no registered policy or alias matches."""


@dataclass(frozen=True)
class PolicyInfo:
    """One registered precharge policy.

    Attributes:
        name: Canonical short name (lower-case).
        factory: Callable building a policy instance from keyword params.
        defaults: Parameter names and default values, from the factory
            signature (parameters without defaults map to ``None``).
        aliases: Alternative names resolving to this policy.
        scheduler_extra_latency: Deterministic extra cycles the scheduler
            should expect on every data-cache access under this policy
            (on-demand precharging declares 1; most policies declare 0).
        description: One-line human-readable summary.
    """

    name: str
    factory: Callable[..., Any]
    defaults: Mapping[str, Any]
    aliases: Tuple[str, ...] = ()
    scheduler_extra_latency: int = 0
    description: str = ""


_REGISTRY: Dict[str, PolicyInfo] = {}
_ALIASES: Dict[str, str] = {}


def _normalise(name: str) -> str:
    return name.strip().lower()


def _signature_defaults(factory: Callable[..., Any]) -> Dict[str, Any]:
    defaults: Dict[str, Any] = {}
    for param in inspect.signature(factory).parameters.values():
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        defaults[param.name] = (
            None if param.default is inspect.Parameter.empty else param.default
        )
    return defaults


def register_policy(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    scheduler_extra_latency: int = 0,
    description: str = "",
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Publish a policy factory under ``name``.

    Usable on a factory function or directly on a policy class; the
    factory's keyword parameters become the spec's accepted params.
    Re-registering a name replaces the previous entry (so tests can
    shadow and restore policies).
    """
    canonical = _normalise(name)

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        owner = _ALIASES.get(canonical)
        if owner is not None and owner != canonical:
            # get_policy_info resolves aliases before exact names, so a
            # policy registered under another policy's alias would be
            # unreachable; refuse instead of registering it silently.
            raise ValueError(
                f"policy name {canonical!r} is already an alias of {owner!r}"
            )
        info = PolicyInfo(
            name=canonical,
            factory=factory,
            defaults=_signature_defaults(factory),
            aliases=tuple(_normalise(a) for a in aliases),
            scheduler_extra_latency=scheduler_extra_latency,
            description=description or (inspect.getdoc(factory) or "").split("\n")[0],
        )
        for alias in info.aliases:
            owner = _ALIASES.get(alias)
            if alias in _REGISTRY or (owner is not None and owner != canonical):
                raise ValueError(
                    f"alias {alias!r} for policy {canonical!r} collides with "
                    "an existing policy name or alias"
                )
        replaced = _REGISTRY.get(canonical)
        if replaced is not None:
            # Drop the replaced entry's alias mappings so a shadowing
            # registration is reachable only under the names it declared.
            for alias in replaced.aliases:
                if _ALIASES.get(alias) == canonical:
                    _ALIASES.pop(alias, None)
        _REGISTRY[canonical] = info
        for alias in info.aliases:
            _ALIASES[alias] = canonical
        return factory

    return decorator


def unregister_policy(name: str) -> None:
    """Remove a registered policy, by name or alias (for test isolation)."""
    canonical = _normalise(name)
    canonical = _ALIASES.get(canonical, canonical)
    info = _REGISTRY.pop(canonical, None)
    if info is not None:
        for alias in info.aliases:
            _ALIASES.pop(alias, None)


def get_policy_info(name: str) -> PolicyInfo:
    """Look up a policy by canonical name or alias.

    Raises:
        UnknownPolicyError: for an unknown policy name.
    """
    canonical = _normalise(name)
    canonical = _ALIASES.get(canonical, canonical)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise UnknownPolicyError(f"unknown policy {name!r}; choose from: {known}") from None


def policy_names() -> Tuple[str, ...]:
    """Canonical names of every registered policy, sorted."""
    return tuple(sorted(_REGISTRY))


def create_policy(name: str, **params: Any) -> Any:
    """Instantiate a registered policy with keyword parameters."""
    return PolicySpec(name, params).build()


def _freeze_params(
    params: Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...], None]
) -> Tuple[Tuple[str, Any], ...]:
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = tuple(params)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one policy instance.

    ``params`` may be given as a mapping (the natural spelling) and is
    stored as a sorted tuple of pairs so specs are hashable and usable
    inside frozen configs and memoisation keys.

    Attributes:
        name: Registered policy name (or alias).
        params: Constructor overrides as ``((key, value), ...)``.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", _normalise(self.name))
        object.__setattr__(self, "params", _freeze_params(self.params))
        try:
            hash(self.params)
        except TypeError:
            raise ValueError(
                f"policy parameters must be hashable (ints, floats, bools, "
                f"strings, tuples); got {dict(self.params)!r}"
            ) from None

    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """The value of one parameter override, or ``default``."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    def asdict(self) -> Dict[str, Any]:
        """Parameter overrides as a plain dictionary."""
        return dict(self.params)

    def with_params(self, **overrides: Any) -> "PolicySpec":
        """A copy of this spec with some parameters changed."""
        merged = self.asdict()
        merged.update(overrides)
        return PolicySpec(self.name, merged)

    # ------------------------------------------------------------------
    def info(self) -> PolicyInfo:
        """The registry entry this spec refers to."""
        return get_policy_info(self.name)

    def validated_params(self) -> Dict[str, Any]:
        """Parameter overrides, checked against the factory signature.

        Raises:
            ValueError: for a parameter the factory does not accept.
        """
        info = self.info()
        params = self.asdict()
        unknown = sorted(set(params) - set(info.defaults))
        if unknown:
            allowed = ", ".join(sorted(info.defaults)) or "<none>"
            raise ValueError(
                f"policy {info.name!r} does not accept parameter(s) "
                f"{unknown}; allowed: {allowed}"
            )
        return params

    def canonical(self) -> "PolicySpec":
        """This spec with its canonical name and *all* defaults filled in.

        Two specs that build identical policies canonicalise identically,
        which is what makes spec-derived memoisation keys safe.
        """
        info = self.info()
        params = dict(info.defaults)
        params.update(self.validated_params())
        return PolicySpec(info.name, params)

    def cache_key(self) -> Tuple:
        """Hashable memo-key component derived from the canonical form."""
        canonical = self.canonical()
        return (canonical.name, canonical.params)

    def build(self) -> Any:
        """Instantiate the policy this spec describes."""
        info = self.info()
        return info.factory(**self.validated_params())

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation."""
        return {"name": self.name, "params": self.asdict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(data["name"], dict(data.get("params") or {}))

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse a CLI-style spec: ``"gated:threshold=150,predecode_lead_cycles=3"``.

        Values are interpreted as ``int``, ``float`` or ``bool`` when they
        look like one, and kept as strings otherwise.
        """
        name, _, rest = text.partition(":")
        params: Dict[str, Any] = {}
        if rest:
            for chunk in rest.split(","):
                if not chunk.strip():
                    continue
                key, sep, raw = chunk.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed policy parameter {chunk!r} in {text!r} "
                        "(expected key=value)"
                    )
                params[key.strip()] = _parse_value(raw.strip())
        return cls(name, params)


def _parse_value(raw: str) -> Any:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    for converter in (int, float):
        try:
            return converter(raw)
        except ValueError:
            continue
    return raw
