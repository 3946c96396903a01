"""Deterministic constructors and bundled datasets for the group corpus.

Every constructor produces identical generator lists on every call, and every
closed-form order is verified during construction.  Matrix groups become
permutation groups through one builder, ``_matrix_group``, whose matrices hold
field elements as the integers of ``fields.gf_tables``: SL(2,q) and the
SL(2,3) of E25xSL(2,3) act on the nonzero row vectors, PSL(2,q) on the q+1
projective points.
"""

from __future__ import annotations

import re
from importlib import resources
from itertools import product

from .fields import gf_tables, is_prime
from .groups import Group, direct_product, semidirect_product
from .perms import ParseError, Permutation, check_degree, parse_permutation


def cyclic(n):
    if n < 1:
        raise ValueError("cyclic groups need n >= 1")
    if n == 1:
        return Group((), degree=1)
    return Group([Permutation.from_cycles([tuple(range(1, n + 1))], n)])


def elementary_abelian(p, k):
    """E_{p^k}: k commuting p-cycles on disjoint blocks of points."""
    if not is_prime(p) or k < 1:
        raise ValueError("need a prime p and k >= 1")
    gens = []
    for i in range(k):
        block = tuple(range(i * p + 1, (i + 1) * p + 1))
        gens.append(Permutation.from_cycles([block], p * k))
    return Group(gens)


def dihedral(n):
    """Symmetries of the n-gon, order 2n, acting on n points (n >= 3)."""
    if n < 3:
        raise ValueError("dihedral groups need n >= 3")
    r = Permutation.from_cycles([tuple(range(1, n + 1))], n)
    s = Permutation([1] + [n + 2 - i for i in range(2, n + 1)])
    g = Group([r, s])
    if g.order() != 2 * n:  # pragma: no cover
        raise RuntimeError("dihedral construction out of step")
    return g


def generalized_quaternion(order):
    """Q_{2^nu} in its regular action; order 8 is the quaternion group."""
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion groups have 2-power order >= 8")
    m = order // 2
    # points are pairs (i, j): a^i b^j with i mod m, j in {0, 1}
    def pt(i, j):
        return (i % m) + j * m + 1

    a_images = [0] * order
    b_images = [0] * order
    for i in range(m):
        a_images[pt(i, 0) - 1] = pt(i + 1, 0)
        a_images[pt(i, 1) - 1] = pt(i - 1, 1)
        b_images[pt(i, 0) - 1] = pt(i, 1)
        b_images[pt(i, 1) - 1] = pt(i + m // 2, 0)
    g = Group([Permutation(a_images), Permutation(b_images)])
    if g.order() != order:  # pragma: no cover
        raise RuntimeError("quaternion construction out of step")
    return g


def symmetric(n):
    if n < 2:
        raise ValueError("symmetric groups need n >= 2")
    cycle = Permutation.from_cycles([tuple(range(1, n + 1))], n)
    swap = Permutation.from_cycles([(1, 2)], n)
    return Group([cycle, swap])


def alternating(n):
    if n < 3:
        raise ValueError("alternating groups need n >= 3")
    three = Permutation.from_cycles([(1, 2, 3)], n)
    if n == 3:
        return Group([three])
    if n % 2:
        big = Permutation.from_cycles([tuple(range(1, n + 1))], n)
    else:
        big = Permutation.from_cycles([tuple(range(2, n + 1))], n)
    g = Group([three, big])
    expected = 1
    for i in range(1, n + 1):
        expected *= i
    if g.order() != expected // 2:  # pragma: no cover
        raise RuntimeError(f"A{n} order {g.order()} != {expected // 2}")
    return g


SUPPORTED_Q = (3, 4, 5, 7, 8, 9, 11, 13)


def _matrix_group(q, matrices, order, projective=False):
    """Permutation group of k x k matrices over GF(q), entries field ints.

    Each matrix M acts by v -> vM on the nonzero row vectors of GF(q)^k,
    numbered from 1 in ``itertools.product(range(q), repeat=k)`` order.  With
    ``projective`` it acts on the projective points instead: the vectors whose
    first nonzero coordinate is 1, in the same order.  The group must have the
    given order.
    """
    add, mul = gf_tables(q)
    vectors = [v for v in product(range(q), repeat=len(matrices[0])) if any(v)]
    points = [v for v in vectors if not projective or next(filter(None, v)) == 1]
    index = {}
    for i, v in enumerate(points):
        for s in range(1, q) if projective else (1,):
            index[tuple(mul[s][c] for c in v)] = i + 1
    gens = []
    for m in matrices:
        images = []
        for v in points:
            w = [0] * len(v)
            for c, row in zip(v, m):
                w = [add[x][mul[c][e]] for x, e in zip(w, row)]
            images.append(index[tuple(w)])
        gens.append(Permutation(images))
    g = Group(gens)
    if g.order() != order:
        raise RuntimeError(f"matrix group order {g.order()} != {order}")
    return g


def _sl2(q, projective):
    """SL(2,q) or PSL(2,q) from the transvections [[1, x], [0, 1]] for x
    running over a basis 1, x, x^2, ... of GF(q) over GF(p), and the Weyl
    element [[0, 1], [-1, 0]]."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"unsupported field size {q}; supported: {SUPPORTED_Q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    basis = [1]
    while basis[-1] * p < q:
        basis.append(basis[-1] * p)
    matrices = [((1, x), (0, 1)) for x in basis] + [((0, 1), (p - 1, 0))]
    order = q * (q * q - 1) // (2 if projective and q % 2 else 1)
    return _matrix_group(q, matrices, order, projective)


def special_linear2(q):
    """SL(2,q) on the q^2-1 nonzero row vectors of GF(q)^2."""
    return _sl2(q, projective=False)


def projective_special_linear2(q):
    """PSL(2,q) on the q+1 projective points of GF(q)^2."""
    return _sl2(q, projective=True)


# ----------------------------------------------------------------------
# bundled semidirect datasets


def _ea_semidirect(p, k, acting, matrices):
    """E_{p^k} x| H with the action given by k x k matrices over GF(p)."""
    normal = elementary_abelian(p, k)
    ngens = normal.generators
    action = []
    for m in matrices:
        images = []
        for i in range(k):
            img = normal.identity()
            for j in range(k):
                e = m[i][j] % p
                if e:
                    img = img * ngens[j] ** e
            images.append(img)
        action.append(images)
    return semidirect_product(normal, acting, action)


def _assert_frobenius(acting):
    """The matrix group ``acting``, on the nonzero vectors of GF(p)^k, must
    move every point by every non-identity element.  Its builder checked the
    order, so the action is faithful and E_{p^k} x| acting is Frobenius."""
    for g in acting.elements():
        if not g.is_identity() and any(g.apply(i) == i for i in range(1, g.degree + 1)):
            raise RuntimeError("action has fixed points; not Frobenius")


def _build_e25_sl23():
    # SL(2,3) inside SL(2,5): the quaternion units i, j and an order-3 unit
    matrices = [[[2, 0], [0, 3]], [[0, 1], [4, 0]], [[1, 1], [2, 3]]]
    acting = _matrix_group(5, matrices, 24)
    _assert_frobenius(acting)
    return _ea_semidirect(5, 2, acting, matrices)


def _build_e4_c3():
    return _ea_semidirect(2, 2, cyclic(3), [[[0, 1], [1, 1]]])


_C_X3 = [[0, 1, 0], [0, 0, 1], [1, 1, 0]]  # multiplication by x mod x^3+x+1
_F_X3 = [[1, 0, 0], [0, 0, 1], [0, 1, 1]]  # Frobenius a -> a^2 on GF(8)
_C_X5 = [  # multiplication by x mod x^5+x^2+1
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
    [1, 0, 1, 0, 0],
]
_F_X5 = [  # Frobenius a -> a^2 on GF(32)
    [1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1],
    [0, 1, 0, 1, 0],
    [1, 0, 1, 1, 0],
]


def _build_e8_c7():
    return _ea_semidirect(2, 3, cyclic(7), [_C_X3])


def _frobenius_metacyclic(n, r, m):
    """C_n x| C_m with the generator acting as a -> a^r."""
    base = cyclic(n)
    a = base.generators[0]
    return semidirect_product(base, cyclic(m), [[a**r]])


def _build_e8_f21():
    f21 = _frobenius_metacyclic(7, 2, 3)  # C7 x| C3, squaring action
    return _ea_semidirect(2, 3, f21, [_C_X3, _F_X3])


def _build_e32_f155():
    f155 = _frobenius_metacyclic(31, 2, 5)  # C31 x| C5, squaring action
    return _ea_semidirect(2, 5, f155, [_C_X5, _F_X5])


def _build_q8_c3():
    q8 = generalized_quaternion(8)
    a, b = q8.generators
    return semidirect_product(q8, cyclic(3), [[b, a * b]])


SEMIDIRECT_DATASETS = {
    "E25xSL(2,3)": (_build_e25_sl23, 600),
    "E4xC3": (_build_e4_c3, 12),
    "E8xC7": (_build_e8_c7, 56),
    "E8x(C7xC3)": (_build_e8_f21, 168),
    "E32x(C31xC5)": (_build_e32_f155, 4960),
    "Q8xC3": (_build_q8_c3, 24),
}


def build_semidirect_dataset(name):
    if name not in SEMIDIRECT_DATASETS:
        raise ValueError(
            f"unknown dataset {name!r}; known: {sorted(SEMIDIRECT_DATASETS)}"
        )
    builder, expected = SEMIDIRECT_DATASETS[name]
    g = builder()
    if g.order() != expected:  # pragma: no cover - builders verify themselves
        raise RuntimeError(f"{name}: order {g.order()} != {expected}")
    return g


# ----------------------------------------------------------------------
# group files


def parse_group_file(text, source="<string>"):
    """Parse the group-file format.

    Line 1 is ``degree N``; an optional ``order M`` line declares the expected
    order; every further line is one generator in cycle notation.  ``#``
    starts a comment.  Parse errors carry 1-based line numbers.
    """
    degree = None
    declared = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise ParseError("expected 'degree N' as the first entry", lineno)
            degree = int(m.group(1))
            check_degree(degree, lineno)
            continue
        m = re.fullmatch(r"order\s+(\d+)", line)
        if m:
            if declared is not None:
                raise ParseError("duplicate order line", lineno)
            declared = int(m.group(1))
            continue
        gens.append(parse_permutation(line, degree, lineno))
    if degree is None:
        raise ParseError("empty group file: no degree line", 1)
    group = Group(gens, degree=degree)
    if declared is not None and group.order() != declared:
        raise ValueError(
            f"{source}: declared order {declared} but generators give {group.order()}"
        )
    return group


def ingest(path):
    """Group from a group file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_file(fh.read(), source=str(path))


def format_group_file(group, comment=None):
    """The group file of ``group``, one that ``parse_group_file`` reads: a
    ValueError for a degree above ``MAX_DEGREE``, which products and
    quotients can reach but no group file holds."""
    check_degree(group.degree)
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"degree {group.degree}")
    lines.append(f"order {group.order()}")
    for g in group.generators:
        lines.append(str(g))
    return "\n".join(lines) + "\n"


def load_bundled(name):
    """A bundled dataset file (datasets carry their declared order)."""
    data = resources.files("subconj.data").joinpath(f"{name}.grp").read_text("utf-8")
    return parse_group_file(data, source=f"bundled:{name}")


# ----------------------------------------------------------------------
# the name grammar


_PATTERNS = (
    (re.compile(r"Cyclic\((\d+)\)"), lambda m: cyclic(int(m.group(1)))),
    (
        re.compile(r"ElementaryAbelian\((\d+),(\d+)\)"),
        lambda m: elementary_abelian(int(m.group(1)), int(m.group(2))),
    ),
    (re.compile(r"Dihedral\((\d+)\)"), lambda m: dihedral(int(m.group(1)))),
    (
        re.compile(r"GeneralizedQuaternion\((\d+)\)"),
        lambda m: generalized_quaternion(int(m.group(1))),
    ),
    (re.compile(r"Symmetric\((\d+)\)"), lambda m: symmetric(int(m.group(1)))),
    (re.compile(r"Alternating\((\d+)\)"), lambda m: alternating(int(m.group(1)))),
    (re.compile(r"SL2\((\d+)\)"), lambda m: special_linear2(int(m.group(1)))),
    (re.compile(r"PSL2\((\d+)\)"), lambda m: projective_special_linear2(int(m.group(1)))),
)


def _split_product(name):
    """Split on top-level '*' only; dataset names contain parentheses."""
    parts = []
    depth = 0
    current = []
    for ch in name:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def construct(name):
    """Build a group from its textual id.

    Ids are the family constructors above, a bundled dataset name, ``M11``,
    or a top-level product ``A*B`` of two ids.
    """
    name = name.strip()
    parts = _split_product(name)
    if len(parts) > 1:
        group = construct(parts[0])
        for part in parts[1:]:
            group = direct_product(group, construct(part))
        return group
    if name == "M11":
        return load_bundled("m11")
    if name in SEMIDIRECT_DATASETS:
        return build_semidirect_dataset(name)
    for pattern, builder in _PATTERNS:
        m = pattern.fullmatch(name)
        if m:
            return builder(m)
    raise ValueError(f"unknown group id {name!r}")
