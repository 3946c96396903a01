"""Resource caps for the exact algorithms.

Every operation that could blow up on a large ingested group checks one of
these limits and raises :class:`CapExceeded` instead of silently degrading.
The limits are read only from the group's own ``caps`` (no function takes a
bound as an argument): :data:`DEFAULT_CAPS`, whose fields the ``SUBCONJ_*``
environment variables override, or ``Group(..., caps=Caps(...))``.
Quotients and products inherit the caps of their source group, and a corpus
manifest's per-entry ``full_cap`` builds the entry's group with
``dataclasses.replace(caps, full_subgroup_cap=full_cap)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


class CapExceeded(RuntimeError):
    """An exact computation was refused because a configured cap was exceeded.

    ``entry`` names the corpus entry being analysed, once the harness knows
    it.  The constructor arguments are the exception's ``args``, so it
    survives pickling (a ``--jobs`` worker sends it back to the parent).
    """

    def __init__(self, kind, detail):
        super().__init__(kind, detail)
        self.kind = kind
        self.detail = detail
        self.entry = None

    def __str__(self):
        text = f"{self.kind} cap exceeded: {self.detail}"
        return text if self.entry is None else f"{self.entry}: {text}"


@dataclass(frozen=True)
class Caps:
    # full element enumeration of a group
    element_cap: int = 200_000
    # all-subgroup enumeration up to conjugacy
    full_subgroup_cap: int = 2_000
    # p-subgroup enumeration is allowed while |Syl_p| stays within this bound
    sylow_order_cap: int = 256
    # total element-set keys visited by conjugation-orbit walks
    orbit_key_cap: int = 1_000_000
    # exact isomorphism search
    iso_cap: int = 256

    _ENV = {
        "element_cap": "SUBCONJ_ELEMENT_CAP",
        "full_subgroup_cap": "SUBCONJ_FULL_SUBGROUP_CAP",
        "sylow_order_cap": "SUBCONJ_SYLOW_ORDER_CAP",
        "orbit_key_cap": "SUBCONJ_ORBIT_KEY_CAP",
        "iso_cap": "SUBCONJ_ISO_CAP",
    }

    @classmethod
    def from_env(cls):
        values = {}
        for field, var in cls._ENV.items():
            raw = os.environ.get(var)
            if raw is not None:
                values[field] = int(raw)
        return cls(**values)


DEFAULT_CAPS = Caps.from_env()
