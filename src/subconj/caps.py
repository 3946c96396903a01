"""Resource caps for the exact algorithms.

Every operation that could blow up on a large ingested group checks one of
these limits and raises :class:`CapExceeded` instead of silently degrading.
The limits are read only from the group's own ``caps`` (no function takes a
bound as an argument): :data:`DEFAULT_CAPS`, whose fields the ``SUBCONJ_*``
environment variables override, or ``Group(..., caps=Caps(...))``.
Quotients and products inherit the caps of their source group.  A corpus
manifest sets no cap: its entries are names, built at the default caps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache


class CapExceeded(RuntimeError):
    """An exact computation was refused because a configured cap was exceeded.

    The constructor arguments are the exception's ``args``, so it survives
    pickling (a ``--jobs`` worker sends it back to the parent).
    """

    def __init__(self, kind, detail):
        super().__init__(kind, detail)
        self.kind = kind
        self.detail = detail

    def __str__(self):
        return f"{self.kind} cap exceeded: {self.detail}"


@dataclass(frozen=True)
class Caps:
    # full element enumeration of a group
    element_cap: int = 200_000
    # all-subgroup enumeration up to conjugacy
    full_subgroup_cap: int = 2_000
    # element indices one subgroup registry, or one conjugacy test, may hold
    stored_index_cap: int = 250_000
    # exact isomorphism search
    iso_cap: int = 256

    _ENV = {
        "element_cap": "SUBCONJ_ELEMENT_CAP",
        "full_subgroup_cap": "SUBCONJ_FULL_SUBGROUP_CAP",
        "stored_index_cap": "SUBCONJ_STORED_INDEX_CAP",
        "iso_cap": "SUBCONJ_ISO_CAP",
    }

    @classmethod
    def from_env(cls):
        """The defaults, overridden by the set ``SUBCONJ_*`` variables; a
        value that is not a non-negative integer, or a set variable of a
        removed cap, raises ValueError naming the variable."""
        # the caps that the stored-index cap replaced
        for var in ("SUBCONJ_ORBIT_KEY_CAP", "SUBCONJ_SYLOW_ORDER_CAP"):
            if var in os.environ:
                raise ValueError(f"{var} was replaced by SUBCONJ_STORED_INDEX_CAP")
        values = {}
        for field, var in cls._ENV.items():
            raw = os.environ.get(var)
            if raw is None:
                continue
            try:
                value = int(raw)
            except ValueError:
                value = -1  # refused below with the negative values
            if value < 0:
                raise ValueError(f"{var}={raw!r} is not a non-negative integer")
            values[field] = value
        return cls(**values)


@cache
def default_caps():
    """:data:`DEFAULT_CAPS`: ``Caps.from_env()``, read on first use rather
    than at import, so that a bad ``SUBCONJ_*`` value reaches the caller (the
    CLI prints it as one error line) instead of failing the import."""
    return Caps.from_env()


def __getattr__(name):
    # DEFAULT_CAPS is computed lazily by default_caps()
    if name == "DEFAULT_CAPS":
        return default_caps()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
