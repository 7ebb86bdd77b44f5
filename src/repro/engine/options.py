"""Typed engine configuration: one frozen options record for every
front door.

:class:`EngineOptions` is the only way to configure
:func:`repro.engine.solve`, :func:`~repro.engine.execute`,
:func:`~repro.engine.solve_batch` and
:class:`~repro.engine.session.Session` -- passed as ``options=``::

    from repro.engine import EngineOptions, Session, solve

    opts = EngineOptions(backend="numpy", checked=True)
    result = solve(system, options=opts)
    session = Session(system, options=opts.replace(checked=False))

Unknown keywords raise :class:`ValueError` naming the valid set.  The
record is hashable via :meth:`key`, which is what lets the serving
layer (:mod:`repro.serve`) coalesce concurrent requests that share a
problem *and* a configuration, and :meth:`to_dict` /
:meth:`from_dict` define the wire format ``repro.serve`` request JSON
maps onto 1:1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

__all__ = ["EngineOptions"]

#: Field names settable through :meth:`EngineOptions.from_dict` /
#: :meth:`EngineOptions.merged` -- the unified front-door option set.
OPTION_KEYS = (
    "backend",
    "policy",
    "checked",
    "check_sample",
    "verify_plan",
    "failover",
    "backend_options",
)


def _policy_to_dict(policy) -> Optional[Dict[str, Any]]:
    if policy is None:
        return None
    return {
        "max_rounds": policy.max_rounds,
        "timeout_s": policy.timeout_s,
        "on_exhaustion": policy.on_exhaustion,
    }


def _policy_from_value(value):
    """Accept a :class:`~repro.resilience.SolvePolicy` or its dict form."""
    if value is None:
        return value
    from ..resilience.policy import SolvePolicy

    if isinstance(value, SolvePolicy):
        return value
    if isinstance(value, Mapping):
        valid = ("max_rounds", "timeout_s", "on_exhaustion")
        unknown = sorted(set(value) - set(valid))
        if unknown:
            raise ValueError(
                f"policy got unknown key(s): {', '.join(unknown)}; valid "
                f"keys: {', '.join(valid)}"
            )
        return SolvePolicy(**dict(value))
    raise TypeError(
        f"policy must be a SolvePolicy or a mapping, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class EngineOptions:
    """Frozen configuration for one engine entry point.

    Attributes
    ----------
    backend:
        Executor registry name (``"auto"`` resolves to ``"numpy"``).
    policy:
        A :class:`~repro.resilience.SolvePolicy` bounding the solve,
        or ``None`` for unbounded.
    checked:
        Differentially verify sampled cells against the sequential
        oracle.
    check_sample:
        Sample size for ``checked`` (``None`` checks every cell).
    verify_plan:
        Statically verify preconditions + the solve plan
        (:mod:`repro.check`) before trusting it.
    failover:
        Arm the backend failover ladder
        (:mod:`repro.engine.failover`).
    backend_options:
        Remaining backend/family extras (Moebius ``path`` / ``guard``,
        PRAM ``processors`` / ``fault_plan`` / ``max_retries``, ...),
        exactly the keys the historical free-form
        ``options`` dict carried.
    """

    backend: str = "auto"
    policy: Optional[object] = None
    checked: bool = False
    check_sample: Optional[int] = 64
    verify_plan: bool = False
    failover: bool = True
    backend_options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str):
            raise ValueError(
                f"backend must be a registry name string, got "
                f"{type(self.backend).__name__}"
            )
        object.__setattr__(self, "policy", _policy_from_value(self.policy))
        if not isinstance(self.backend_options, Mapping):
            raise TypeError(
                "backend_options must be a mapping, got "
                f"{type(self.backend_options).__name__}"
            )
        object.__setattr__(self, "backend_options", dict(self.backend_options))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_value(cls, value: Any, *, where: str = "options") -> "EngineOptions":
        """Normalize any accepted ``options=`` value.

        ``None`` -> defaults; an :class:`EngineOptions` passes through;
        a plain mapping is the historical backend-extras dict.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls(backend_options=value)
        raise TypeError(
            f"{where} must be an EngineOptions or a mapping of backend "
            f"extras, got {type(value).__name__}"
        )

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "EngineOptions":
        """Build from the wire format (``repro.serve`` request JSON).

        Unknown keys raise :class:`ValueError` naming the valid set;
        ``policy`` may be a nested dict
        (``{"max_rounds": ..., "timeout_s": ..., "on_exhaustion": ...}``).
        """
        unknown = sorted(set(doc) - set(OPTION_KEYS))
        if unknown:
            raise ValueError(
                f"EngineOptions got unknown key(s): {', '.join(unknown)}; "
                f"valid keys: {', '.join(OPTION_KEYS)}"
            )
        return cls(**dict(doc))

    def merged(self, **overrides: Any) -> "EngineOptions":
        """This record with explicit overrides applied (unknown names
        raise :class:`ValueError` naming the valid set)."""
        unknown = sorted(set(overrides) - set(OPTION_KEYS))
        if unknown:
            raise ValueError(
                f"EngineOptions got unknown key(s): {', '.join(unknown)}; "
                f"valid keys: {', '.join(OPTION_KEYS)}"
            )
        return replace(self, **overrides)

    def replace(self, **changes: Any) -> "EngineOptions":
        """Alias of :meth:`merged` (dataclasses.replace semantics)."""
        return self.merged(**changes)

    # -- views -------------------------------------------------------------

    def key(self) -> tuple:
        """Hashable identity: two requests coalesce only when their
        options keys are equal (same backend, same policy, same
        extras)."""
        return (
            self.backend,
            self.policy,
            self.checked,
            self.check_sample,
            self.verify_plan,
            self.failover,
            tuple(
                sorted(
                    (k, repr(v)) for k, v in self.backend_options.items()
                )
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict` for
        serializable extras)."""
        return {
            "backend": self.backend,
            "policy": _policy_to_dict(self.policy),
            "checked": self.checked,
            "check_sample": self.check_sample,
            "verify_plan": self.verify_plan,
            "failover": self.failover,
            "backend_options": dict(self.backend_options),
        }


# Keep OPTION_KEYS in lockstep with the dataclass fields.
assert OPTION_KEYS == tuple(f.name for f in fields(EngineOptions))
