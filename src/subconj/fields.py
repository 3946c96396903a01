"""The finite fields GF(q) of the matrix-group constructors, as integer tables.

Element n of GF(p^k) is the polynomial whose coefficients, lowest degree
first, are the base-p digits of n; so 0 and 1 are the field's zero and one,
and the prime field is 0..p-1.  Extension fields reduce by fixed irreducible
polynomials, which keeps every constructor deterministic: GF(4) uses
x^2+x+1, GF(8) uses x^3+x+1 and GF(9) uses x^2+1.
"""

from __future__ import annotations

from functools import lru_cache

# q -> (p, non-leading coefficients of the fixed monic modulus, lowest first)
_EXTENSION_MODULI = {
    4: (2, (1, 1)),  # x^2 + x + 1
    8: (2, (1, 1, 0)),  # x^3 + x + 1
    9: (3, (1, 0)),  # x^2 + 1
}


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_powers(n):
    """{p: e} for the prime powers p^e exactly dividing n, primes ascending,
    by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        p += 1
    if n > 1:
        out[n] = 1
    return out


def divisors(n):
    """The divisors of n in ascending order, built from ``prime_powers(n)``:
    for each p^e, the k divisors found so far are followed by k * e more,
    each one p times the entry k places before it."""
    out = [1]
    for p, e in prime_powers(n).items():
        for i in range(len(out) * e):
            out.append(out[i] * p)
    return sorted(out)


@lru_cache(maxsize=None)
def gf_tables(q):
    """``(add, mul)`` of GF(q): ``add[a][b]`` is a+b and ``mul[a][b]`` is a*b.

    q is a prime or one of the extension sizes 4, 8 and 9.
    """
    # a prime q has degree 1 and never reduces, so its modulus is a placeholder
    p, modulus = _EXTENSION_MODULI.get(q, (q, (0,)))
    k = len(modulus)

    def digits(n):
        return [n // p**i % p for i in range(k)]

    def number(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def times(a, b):
        # schoolbook product, then reduce x^d -> x^(d-k) * (-modulus)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):
            for i, m in enumerate(modulus):
                prod[d - k + i] -= prod[d] * m
        return number(c % p for c in prod[:k])

    add = tuple(
        tuple(number((x + y) % p for x, y in zip(digits(a), digits(b))) for b in range(q))
        for a in range(q)
    )
    mul = tuple(tuple(times(a, b) for b in range(q)) for a in range(q))
    return add, mul
