"""Arithmetic in the binary extension fields GF(2^m).

Both the k-wise independent generator (Theorem 3.5 machinery, [AS04]) and
the epsilon-biased space (Lemma 3.4 machinery, [NN93]/AGHP) are built from
polynomial evaluation over GF(2^m). Elements are represented as Python
integers in ``[0, 2^m)`` whose bits are the coefficients of a polynomial
over GF(2), reduced modulo a fixed irreducible polynomial.

The irreducible polynomials used here are standard low-weight ones
(trinomials/pentanomials) from Seroussi's table; they are hard-coded for
the degrees the library needs.

For every m <= 16, multiplication goes through discrete-log tables over
the smallest generator of GF(2^m)* (x itself, except for the AES modulus
at m = 8, where x has order 51 and x + 1 generates). Each degree's
tables are built once per process by vectorized shift-and-reduce and
shared read-only by every ``GF2m(m)``: scalar code reads tuples, vector
code reads non-writeable numpy arrays. Larger degrees use carry-less
multiplication, and their vector operations loop over the scalar ones.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

import numpy as np

from ..errors import ConfigurationError

# Irreducible polynomials over GF(2), keyed by degree m. The value encodes
# x^m + ... with the leading x^m bit included (bit m set).
_IRREDUCIBLE = {
    1: 0b11,                      # x + 1
    2: 0b111,                     # x^2 + x + 1
    3: 0b1011,                    # x^3 + x + 1
    4: 0b10011,                   # x^4 + x + 1
    5: 0b100101,                  # x^5 + x^2 + 1
    6: 0b1000011,                 # x^6 + x + 1
    7: 0b10000011,                # x^7 + x + 1
    8: 0b100011011,               # x^8 + x^4 + x^3 + x + 1 (AES)
    9: 0b1000010001,              # x^9 + x^4 + 1
    10: 0b10000001001,            # x^10 + x^3 + 1
    11: 0b100000000101,           # x^11 + x^2 + 1
    12: 0b1000001010011,          # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,         # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,        # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,       # x^15 + x + 1
    16: 0b10001000000001011,      # x^16 + x^12 + x^3 + x + 1
    17: 0b100000000000001001,     # x^17 + x^3 + 1
    18: 0b1000000000010000001,    # x^18 + x^7 + 1
    19: 0b10000000000000100111,   # x^19 + x^5 + x^2 + x + 1
    20: 0b100000000000000001001,  # x^20 + x^3 + 1
    21: 0b1000000000000000000101,   # x^21 + x^2 + 1
    22: 0b10000000000000000000011,  # x^22 + x + 1
    23: 0b100000000000000000100001,  # x^23 + x^5 + 1
    24: 0b1000000000000000010000111,  # x^24 + x^7 + x^2 + x + 1
    28: 0b10000000000000000000000001001,  # x^28 + x^3 + 1
    31: 0b10000000000000000000000000001001,  # x^31 + x^3 + 1
    32: 0b100000000000000000000000010001101,  # x^32+x^7+x^3+x^2+1
}


#: Largest degree with log/antilog tables (2^16 entries per table).
_MAX_TABLE_DEGREE = 16


class _Tables(NamedTuple):
    """Discrete-log tables of one degree, shared by every ``GF2m(m)``.

    ``exp`` is the antilog walk doubled, so ``exp[log a + log b]`` never
    needs a modulo; ``log[0]`` is a junk entry the scalar code never
    reads. The numpy copies replace ``log[0]`` with a sentinel that
    indexes past every real sum of two logs (even when added to
    itself) into a zero-padded tail of ``exp``, so a zero operand
    yields zero with no mask.
    """

    log: tuple
    exp: tuple
    log_np: np.ndarray
    exp_np: np.ndarray


def _times(values: np.ndarray, c: int, m: int) -> np.ndarray:
    """``values * c`` in GF(2^m), elementwise: shift-and-reduce over the
    bits of the constant ``c``."""
    modulus = _IRREDUCIBLE[m]
    out = np.zeros_like(values)
    while c:
        if c & 1:
            out ^= values
        c >>= 1
        values = values << 1
        values ^= (values >> m) * modulus
    return out


@functools.lru_cache(maxsize=None)
def _tables(m: int) -> Optional[_Tables]:
    """Build (once per process) the tables of GF(2^m), or None if m > 16.

    The antilog walk of each candidate generator ``g`` doubles: with
    ``exp[:k]`` = g^0 .. g^(k-1) known, ``exp[k:2k] = exp[:k] * g^k``
    is one vector multiply, so a degree costs O(m log 2^m) numpy passes.
    The cache is keyed by the supported degrees only (``GF2m``
    validates ``m`` first) and hands out immutable values.
    """
    if m > _MAX_TABLE_DEGREE:
        return None
    order = 1 << m
    group = order - 1  # size of the multiplicative group
    g = 2  # x; the next candidates are x + 1, x^2, ...
    exp = np.ones(group, dtype=np.int64)
    while True:
        k = 1
        while k < group:
            power = int(_times(exp[k - 1:k], g, m)[0])  # g^k
            exp[k:2 * k] = _times(exp[:min(k, group - k)], power, m)
            k *= 2
        if not np.any(exp[1:] == 1):
            break  # g^i != 1 for 0 < i < 2^m - 1: a generator
        g += 1
    log = np.zeros(order, dtype=np.int64)  # log[0] is the junk entry
    log[exp] = np.arange(group)
    zero = 2 * group  # > any real log sum; zero + zero is still in range
    log_np = log.copy()
    log_np[0] = zero
    exp_np = np.zeros(2 * zero + 1, dtype=np.int64)
    exp_np[:group] = exp_np[group:zero] = exp
    log_np.flags.writeable = False
    exp_np.flags.writeable = False
    walk = exp.tolist()  # both halves of the doubled walk share its ints
    return _Tables(tuple(log.tolist()), tuple(walk + walk), log_np, exp_np)


class GF2m:
    """The finite field GF(2^m) for a supported degree ``m``.

    Instances are lightweight: they carry the degree, the modulus and a
    reference to the degree's shared log/antilog tables (m <= 16), which
    are built once per process over the smallest generator.
    Field elements are plain integers, which keeps hot loops fast.

    >>> f = GF2m(8)
    >>> f.mul(0x53, 0xCA)  # the classic AES example
    1
    """

    def __init__(self, m: int):
        if m not in _IRREDUCIBLE:
            supported = sorted(_IRREDUCIBLE)
            raise ConfigurationError(
                f"GF(2^{m}) is not supported; choose m in {supported}"
            )
        self.m = m
        self.modulus = _IRREDUCIBLE[m]
        self.order = 1 << m
        self._mask = self.order - 1
        # Log/antilog tables make mul O(1). Every m <= 16 has them,
        # shared read-only across instances and built on the first
        # GF2m(m) of the process; larger m multiply carry-less.
        tables = _tables(m)
        if tables is None:
            self._log = self._exp = ()
            self._log_np = self._exp_np = None
        else:
            self._log, self._exp, self._log_np, self._exp_np = tables

    def __repr__(self) -> str:
        return f"GF2m({self.m})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2m) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("GF2m", self.m))

    def element(self, value: int) -> int:
        """Reduce an arbitrary integer into the field by truncation."""
        return value & self._mask

    def add(self, a: int, b: int) -> int:
        """Field addition (XOR of coefficient vectors)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication (table-based when available)."""
        if self._log:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        """Carry-less multiply then modular reduction."""
        result = 0
        x = a
        while b:
            if b & 1:
                result ^= x
            x <<= 1
            b >>= 1
        # Reduction modulo the irreducible polynomial.
        mod = self.modulus
        m = self.m
        top = result.bit_length() - 1
        while top >= m:
            result ^= mod << (top - m)
            top = result.bit_length() - 1
        return result

    def pow(self, a: int, e: int) -> int:
        """Field exponentiation by square-and-multiply."""
        if e < 0:
            raise ConfigurationError("negative exponents require inversion; use inv()")
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat: a^(2^m - 2)."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^m)")
        if self._log:
            return self._exp[(self.order - 1) - self._log[a]]
        return self.pow(a, self.order - 2)

    def eval_poly(self, coeffs: list, x: int) -> int:
        """Evaluate a polynomial with the given coefficients at ``x``.

        ``coeffs[0]`` is the constant term. Uses Horner's rule.
        """
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    # ------------------------------------------------------------------
    # Vectorized arithmetic (table-backed; a scalar loop when m > 16)
    # ------------------------------------------------------------------
    def eval_poly_vec(self, coeffs: list, xs: np.ndarray) -> np.ndarray:
        """Horner evaluation of one polynomial at every point of an int64
        array, as int64.

        Runs in the log domain: ``log x`` is looked up once, and each
        Horner step is one gather, ``acc = exp[log acc + log x] ^ c``.
        Degrees without tables evaluate point by point.
        """
        if self._log_np is None:
            return np.array([self.eval_poly(coeffs, x) for x in xs.tolist()],
                            dtype=np.int64)
        log, exp = self._log_np, self._exp_np
        log_x = log[xs]
        acc = np.zeros(xs.size, dtype=np.int64)
        for c in reversed(coeffs):
            acc = exp[log[acc] + log_x] ^ c
        return acc

    def pow_vec(self, a: int, exps: np.ndarray) -> np.ndarray:
        """``a**e`` for every exponent ``e >= 0`` of an int64 array, as
        int64.

        Exponentiation through the discrete log: ``a^e`` is
        ``exp[(log a * e) mod (2^m - 1)]`` — one vectorized modmul for
        the whole array instead of a chain of field multiplications.
        Degrees without tables exponentiate one exponent at a time.
        """
        if self._log_np is None:
            return np.array([self.pow(a, e) for e in exps.tolist()],
                            dtype=np.int64)
        if a == 0:
            # 0^0 == 1 by the repeated-product convention.
            return (exps == 0).astype(np.int64)
        return self._exp_np[(self._log[a] * exps) % (self.order - 1)]


def inner_product_bits(a: int, b: int) -> int:
    """Inner product over GF(2) of the bit representations of ``a``, ``b``.

    Used by the epsilon-biased construction: bit i of the sample is
    ``<x^i, y>``.
    """
    return bin(a & b).count("1") & 1


def min_degree_for(points: int) -> int:
    """Smallest supported field degree whose order is at least ``points``."""
    for m in sorted(_IRREDUCIBLE):
        if (1 << m) >= points:
            return m
    raise ConfigurationError(f"no supported field with at least {points} elements")


def supported_degrees() -> list:
    """All degrees m for which GF(2^m) arithmetic is available."""
    return sorted(_IRREDUCIBLE)
