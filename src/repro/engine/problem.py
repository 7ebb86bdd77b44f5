"""Problem descriptions: the value-independent half of a solve request.

A :class:`Problem` captures exactly what a :class:`~repro.engine.plan.Plan`
may depend on -- the solver family, the index maps ``g``/``f``(/``h``),
the array size ``m``, the structural flags that change the planned
pipeline (GIR renaming / ordinary dispatch, the Moebius self-term
rewrite) and, for GIR, the operator's ``power_period``.  Deliberately
**excluded** are the values (``initial``, the coefficient lists) and
the operator itself: plans are value-independent, and
operator-independent up to the GIR exponent modulus, which is what
lets one cached plan serve solves over different data and even
different monoids sharing the maps (and, for GIR, the period).

A GIR plan counts trace paths modulo the period once they would leave
int64 (the power table then holds residues, see
:class:`~repro.engine.plan.PowerTable`), so two GIR operators share a
plan exactly when they share the period.

:meth:`Problem.fingerprint` is the cache key of the plan cache
(:mod:`repro.engine.planner`): a SHA-256 digest, truncated to 128 bits
(32 hex characters), over the family, the dimensions, the flags, the
period and the raw index-map bytes.  SHA-256 rather than BLAKE2b
because a cold request hashes megabytes of maps, and CPUs with SHA
extensions hash SHA-256 about 2.8x faster (1.4 ms against 4.1 ms for
1.6 MB on a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["Problem", "FAMILIES"]

FAMILIES = ("ordinary", "gir", "moebius")


@dataclass
class Problem:
    """The plannable description of one solve.

    Attributes
    ----------
    family:
        ``"ordinary"``, ``"gir"`` or ``"moebius"``.
    g, f, h:
        The index maps (``h`` is ``None`` outside the GIR family).
    m:
        Array size (number of cells).
    allow_rename, allow_ordinary_dispatch:
        GIR pipeline flags (see :func:`repro.core.gir.solve_gir`);
        they select different plan structures, so they are part of the
        fingerprint.
    self_term:
        Moebius self-term rewrite flag (fingerprinted for symmetry;
        the coefficient matrices it changes are built at execute time).
    period:
        GIR only: the operator's ``power_period`` -- CAP keeps path
        counts past int64 modulo it -- or ``None`` for exact counts.
    """

    family: str
    g: np.ndarray
    f: np.ndarray
    m: int
    h: Optional[np.ndarray] = None
    allow_rename: bool = True
    allow_ordinary_dispatch: bool = True
    self_term: bool = False
    period: Optional[int] = None
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return int(self.g.shape[0])

    @classmethod
    def from_system(
        cls,
        source,
        *,
        allow_rename: bool = True,
        allow_ordinary_dispatch: bool = True,
    ) -> "Problem":
        """Build the :class:`Problem` of any supported source object.

        Accepts :class:`~repro.core.equations.OrdinaryIRSystem`,
        :class:`~repro.core.equations.GIRSystem` and
        :class:`~repro.core.moebius.RationalRecurrence` (including
        :class:`~repro.core.moebius.AffineRecurrence`).
        """
        from ..core.equations import GIRSystem, OrdinaryIRSystem
        from ..core.moebius import RationalRecurrence

        if isinstance(source, GIRSystem):
            return cls(
                family="gir",
                g=source.g,
                f=source.f,
                h=source.h,
                m=source.m,
                allow_rename=allow_rename,
                allow_ordinary_dispatch=allow_ordinary_dispatch,
                period=source.op.power_period,
            )
        if isinstance(source, OrdinaryIRSystem):
            return cls(family="ordinary", g=source.g, f=source.f, m=source.m)
        if isinstance(source, RationalRecurrence):
            return cls(
                family="moebius",
                g=source.g,
                f=source.f,
                m=source.m,
                self_term=source.self_term,
            )
        raise TypeError(
            f"cannot build a Problem from {type(source).__name__}; expected "
            "an OrdinaryIRSystem, GIRSystem or RationalRecurrence"
        )

    def fingerprint(self) -> str:
        """Stable digest of everything a plan may depend on.

        Two problems with equal fingerprints have identical index
        structure (and, for GIR, the same power period), so they share
        plans.  Values and operators are intentionally not hashed --
        plans are value-independent, and operator-independent up to the
        period a GIR plan reduces its path counts by.  The digest is
        memoized -- index maps are treated as immutable, matching the
        library-wide convention.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        hsh = hashlib.sha256()
        header = (
            f"{self.family}|n={self.n}|m={self.m}"
            f"|rename={int(self.allow_rename)}"
            f"|dispatch={int(self.allow_ordinary_dispatch)}"
            f"|self={int(self.self_term)}"
        )
        if self.period is not None:  # exact-count problems keep their digest
            header += f"|period={self.period}"
        hsh.update(header.encode("ascii"))
        for arr in (self.g, self.f, self.h):
            hsh.update(b"|")
            if arr is not None:
                hsh.update(np.ascontiguousarray(arr, dtype=np.int64))
        self._fingerprint = hsh.hexdigest()[:32]
        return self._fingerprint
