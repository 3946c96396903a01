"""Permutations on the points 1..n.

Composition is left-to-right everywhere in this package: ``(f * g)`` means
"apply f, then g", so ``(f * g)(i) == g(f(i))``.  Internally images are stored
as a 0-based tuple; all public text and point interfaces are 1-based.
"""

from __future__ import annotations

import re
from math import lcm

MAX_DEGREE = 256


class ParseError(ValueError):
    """Malformed cycle notation or group file; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Permutation:
    """An immutable bijection on {1..degree}."""

    __slots__ = ("_t",)

    def __init__(self, images):
        """Build from 1-based images: images[i] is the image of point i+1."""
        t = tuple(x - 1 for x in images)
        _check_images(t)
        self._t = t

    @classmethod
    def _from0(cls, images0):
        """Internal constructor from a trusted 0-based tuple."""
        p = object.__new__(cls)
        p._t = images0
        return p

    @classmethod
    def identity(cls, degree):
        check_degree(degree)
        return cls._from0(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles, degree):
        """Build from disjoint (or not) 1-based cycles, applied left to right."""
        check_degree(degree)
        images = list(range(degree))
        for cycle in cycles:
            c = [x - 1 for x in cycle]
            for x in c:
                if not 0 <= x < degree:
                    raise ValueError(f"point {x + 1} outside 1..{degree}")
            if len(set(c)) != len(c):
                raise ValueError(f"repeated point in cycle {tuple(cycle)}")
            prev = list(images)
            step = list(range(degree))
            for a, b in zip(c, c[1:] + c[:1]):
                step[a] = b
            images = [step[prev[i]] for i in range(degree)]
        return cls._from0(tuple(images))

    @property
    def degree(self):
        return len(self._t)

    @property
    def images(self):
        """1-based image tuple; images[i] is where point i+1 goes."""
        return tuple(x + 1 for x in self._t)

    def apply(self, point):
        """Image of a 1-based point."""
        return self._t[point - 1] + 1

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        a, b = self._t, other._t
        if len(a) != len(b):
            raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
        return Permutation._from0(tuple(map(b.__getitem__, a)))

    def inverse(self):
        return Permutation._from0(invert(self._t))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation._from0(tuple(range(self.degree)))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self):
        return self._t == tuple(range(len(self._t)))

    def order(self):
        return lcm(*(len(c) for c in self._cycles0())) if not self.is_identity() else 1

    def cycle_type(self):
        """Sorted tuple of cycle lengths >= 2."""
        return tuple(sorted(len(c) for c in self._cycles0()))

    def _cycles0(self):
        t = self._t
        seen = [False] * len(t)
        out = []
        for i in range(len(t)):
            if seen[i] or t[i] == i:
                seen[i] = True
                continue
            cycle = [i]
            seen[i] = True
            j = t[i]
            while j != i:
                cycle.append(j)
                seen[j] = True
                j = t[j]
            out.append(cycle)
        return out

    def cycles(self):
        """Disjoint cycles as tuples of 1-based points, each starting at its least point."""
        return tuple(tuple(x + 1 for x in c) for c in self._cycles0())

    def __str__(self):
        cs = self.cycles()
        if not cs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cs)

    def __repr__(self):
        return f"Permutation[{self}]"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self._t == other._t

    def __hash__(self):
        return hash(self._t)

    def __lt__(self, other):
        return self._t < other._t


def invert(t):
    """The inverse of a 0-based image tuple."""
    out = [0] * len(t)
    for i, j in enumerate(t):
        out[j] = i
    return tuple(out)


def check_degree(degree, line=None):
    """Refuse a degree outside 1..MAX_DEGREE: a ValueError, or the
    ParseError of a group file's degree entry at ``line``."""
    if 1 <= degree <= MAX_DEGREE:
        return
    if line is None:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    raise ParseError(f"degree {degree} outside 1..{MAX_DEGREE}", line)


def _check_images(t):
    n = len(t)
    check_degree(n)
    if sorted(t) != list(range(n)):
        raise ValueError("images are not a bijection on 1..degree")


_CYCLE_RE = re.compile(r"\((\d+(?:,\d+)*)?\)")


def parse_permutation(text, degree, line=None):
    """Parse disjoint-cycle notation like "(1,2,3)(4,5)"; "()" is the identity.

    Points are 1-based decimal integers; whitespace inside the text carries no
    significance and is stripped before parsing.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty permutation", line)
    pos = 0
    cycles = []
    while pos < len(s):
        m = _CYCLE_RE.match(s, pos)
        if not m:
            raise ParseError(f"malformed cycle at {s[pos:]!r}", line)
        if m.group(1):
            cycle = tuple(int(x) for x in m.group(1).split(","))
            for x in cycle:
                if not 1 <= x <= degree:
                    raise ParseError(f"point {x} outside 1..{degree}", line)
            if len(set(cycle)) != len(cycle):
                raise ParseError(f"repeated point in cycle {m.group(0)}", line)
            cycles.append(cycle)
        pos = m.end()
    try:
        return Permutation.from_cycles(cycles, degree)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc
