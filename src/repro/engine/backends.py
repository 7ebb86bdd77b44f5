"""Backend registry: named executors with declared capabilities.

A :class:`Backend` turns an :class:`ExecutionRequest` (problem + source
object + optional plan + solve options) into values.  Backends register
under a name (``python``, ``numpy``, ``pram`` ship built in;
register your own with :func:`register_backend`) and declare
capabilities -- which solver families they run, whether their
arithmetic is exact for object operands, whether they support the
batch axis -- which :func:`resolve_backend` checks before dispatch.

The built-in ``python`` / ``numpy`` backends are one type,
:class:`KernelBackend`: a name, capabilities and a table of value
kernels, all run by the one engine driver.  ``pram`` simulates the
paper's machine instead.

``auto`` resolves to the vectorized NumPy backend for every family,
matching the historical defaults of the per-module solvers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from . import driver
from .exec_gir import RowTraceEvaluator, TraceEvaluator
from .exec_moebius import (
    AffineLevels,
    AffineRounds,
    RationalLevels,
    RationalRounds,
)
from .exec_ordinary import NumpyLevels, NumpyRounds, PythonRounds
from .plan import Plan
from .problem import Problem

__all__ = [
    "BackendCapabilities",
    "Backend",
    "ExecutionRequest",
    "KernelBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, checked at dispatch time."""

    families: FrozenSet[str]
    exact: bool  # object operands solved without float coercion
    batch: bool  # supports the batch axis over value vectors
    supports_policy: bool = True


@dataclass
class ExecutionRequest:
    """Everything a backend needs to run one solve."""

    problem: Problem
    source: Any  # the system / recurrence supplying values + operator
    plan: Optional[Plan] = None
    collect_stats: bool = False
    policy: Any = None
    checked: bool = False
    check_sample: Optional[int] = 64
    f_initial: Optional[List[Any]] = None
    options: Dict[str, Any] = field(default_factory=dict)
    #: a Moebius recurrence's coefficient columns, classified once by
    #: its ``Session`` (``None``: classified per solve)
    coefficients: Any = None


class Backend(ABC):
    """A named execution strategy for planned solves."""

    name: str
    capabilities: BackendCapabilities

    @abstractmethod
    def execute(
        self, request: ExecutionRequest
    ) -> Tuple[
        List[Any], Optional[object], Optional[Plan], Optional[object], Optional[str]
    ]:
        """Run the solve; returns ``(values, stats, plan, metrics,
        strategy)``.

        ``plan`` is the (possibly freshly built) plan for caching, or
        ``None`` when the backend does not plan (PRAM); ``metrics`` is
        a backend-specific extra (the PRAM run metrics); ``strategy``
        names what ran -- ``"chains"``, ``"levels"``, ``"rounds"`` or
        ``"traces"``
        (see :func:`repro.engine.driver.strategy`) -- or is ``None``.
        """

    def execute_batch(
        self,
        request: ExecutionRequest,
        batch_initial: Sequence[Sequence[Any]],
        f_initial_batch: Optional[Sequence[Sequence[Any]]] = None,
    ) -> Tuple[List[List[Any]], Optional[Plan], Optional[str]]:
        """Solve ``k`` value rows; returns ``(rows, plan, strategy)``."""
        raise NotImplementedError(
            f"backend {self.name!r} does not support batched execution"
        )


class KernelBackend(Backend):
    """A backend that is only a kernel table: the engine driver
    (:mod:`repro.engine.driver`) owns planning, policy, verification,
    stats, spans and the scatter, and calls ``kernels[kind]`` for the
    values -- ``kind`` is ``ordinary`` (or ``levels`` on a chain or
    level plan when the backend has that kernel), a Moebius path
    (``object`` / ``affine`` / ``rational``; ``affine_levels`` and
    ``rational_levels`` replace them likewise) or ``gir``.  ``defaults`` are backend
    options applied under the request's own."""

    def __init__(
        self,
        name: str,
        capabilities: BackendCapabilities,
        kernels: Mapping[str, Any],
        defaults: Optional[Mapping[str, Any]] = None,
    ):
        self.name = name
        self.capabilities = capabilities
        self.kernels = dict(kernels)
        self.defaults = dict(defaults or {})

    def execute(self, request: ExecutionRequest):
        (values,), stats, plan, ran = driver.solve(self, request)
        return values, stats, plan, None, ran

    def execute_batch(self, request, batch_initial, f_initial_batch=None):
        if not self.capabilities.batch:
            return super().execute_batch(request, batch_initial, f_initial_batch)
        return driver.solve_batch(self, request, batch_initial, f_initial_batch)


class PRAMBackend(Backend):
    """Execute on the simulated PRAM machine (ordinary family).

    Options: ``processors`` (default 4), ``cost_model``,
    ``access_policy``, ``fault_plan``, ``max_retries`` -- forwarded to
    :func:`repro.pram.ir_programs.run_ordinary_on_pram`.  Returns the
    machine's :class:`~repro.pram.metrics.RunMetrics` as the backend
    metrics payload; :class:`~repro.resilience.SolvePolicy` budgets are
    not supported (the machine has its own fault/retry machinery).
    """

    name = "pram"
    capabilities = BackendCapabilities(
        families=frozenset({"ordinary"}),
        exact=True,
        batch=False,
        supports_policy=False,
    )

    def execute(self, request: ExecutionRequest):
        from ..pram.ir_programs import run_ordinary_on_pram

        if request.policy is not None:
            raise ValueError(
                "the pram backend does not support SolvePolicy; use its "
                "fault/retry options instead"
            )
        opts = request.options
        kwargs = {"processors": opts.get("processors", 4)}
        for key in ("cost_model", "access_policy", "fault_plan", "max_retries"):
            if key in opts:
                kwargs["policy" if key == "access_policy" else key] = opts[key]
        op = request.source.op
        if op.dtype is not None:  # the front door's lossy-cast check
            driver.admit(request.source.initial, op)
            if request.f_initial is not None:
                driver.admit(request.f_initial, op)
        values, metrics = run_ordinary_on_pram(
            request.source, f_initial=request.f_initial, **kwargs
        )
        if request.checked:
            driver.check(
                "ordinary",
                request.source,
                values,
                request.f_initial,
                request.check_sample,
            )
        return values, None, None, metrics, "rounds"


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, *, overwrite: bool = False) -> None:
    """Add a backend to the registry under ``backend.name``."""
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> Backend:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    return _REGISTRY[name]


def available_backends() -> List[str]:
    return sorted(_REGISTRY)


def resolve_backend(name: str, problem: Problem) -> Backend:
    """Resolve ``name`` (or ``"auto"``) and check family capability."""
    if name == "auto":
        name = "numpy"
    backend = get_backend(name)
    if problem.family not in backend.capabilities.families:
        raise ValueError(
            f"backend {backend.name!r} does not support the "
            f"{problem.family!r} family (supported: "
            f"{sorted(backend.capabilities.families)})"
        )
    return backend


_FAMILIES = frozenset({"ordinary", "gir", "moebius"})
_MOEBIUS = {"affine": AffineRounds, "rational": RationalRounds}

#: Pure-Python reference kernels (exact, synchronous-step); Moebius
#: solves default to the exact object path.
register_backend(
    KernelBackend(
        "python",
        BackendCapabilities(families=_FAMILIES, exact=True, batch=False),
        {
            "ordinary": PythonRounds,
            "object": PythonRounds,
            "gir": RowTraceEvaluator,
            **_MOEBIUS,
        },
        defaults={"path": "object"},
    )
)
#: Vectorized kernels (typed fast paths, object-dtype fallback, which
#: keeps exact operands exact); the only batch-capable backend.
register_backend(
    KernelBackend(
        "numpy",
        BackendCapabilities(families=_FAMILIES, exact=True, batch=True),
        {
            "ordinary": NumpyRounds,
            "levels": NumpyLevels,
            "affine_levels": AffineLevels,
            "rational_levels": RationalLevels,
            "object": NumpyRounds,
            "gir": TraceEvaluator,
            **_MOEBIUS,
        },
    )
)
register_backend(PRAMBackend())
