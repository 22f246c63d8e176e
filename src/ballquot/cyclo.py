"""Multiplicative number theory behind the eigenvalue orbit decomposition.

The d-th cyclotomic polynomial splits over an imaginary quadratic field
Q(sqrt(D)) exactly when the field discriminant divides d; in that case the
primitive d-th roots of unity fall into two Kronecker-symbol orbits of size
phi(d)/2.  This module computes totients, factorizations, the Kronecker
symbol, the splitting test (with an independent character-based cross-check),
and the orbit sets consumed by the fractional-part minimizations.

The cross-check is a scan of a -> (D/a) over a in [1, 10d].  It returns the
units of its first period split by sign, (D/a) = +1 and -1, or None where
the character is not defined mod d, and the orbit sets are those two
classes.  Each field keeps one table of (D/a), shared by the scans of
every order and grown in increasing a only as far as some scan has read,
or a few periods ahead of it.  The table reads (D/a) from kronecker at
a = 1 and a = 2, from Euler's criterion D^((p-1)/2) mod p at odd primes p,
and from complete multiplicativity everywhere else: entry by entry in a
short extension, and in a long one by one slice assignment per small
prime and pass.  The scan compares each later period with the first as
one integer, the period's bytes masked to the units mod d; the units and
that mask come from one cached strike of the multiples of d's primes,
which units_mod reads as well.

The verdicts, the scan results and the strikes are kept for the last 256
pairs or orders each, so a long sweep's memory does not grow with its
reach; the field tables, their sieves and the checked tags are kept whole.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from operator import not_
from typing import Optional

from .qfield import _Frozen, check_field_tag, is_squarefree

FULL = "FULL"
PLUS = "PLUS"
MINUS = "MINUS"


class InternalCheckError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


def factorize(n: int):
    """Prime factorization of n >= 1 as a tuple of (prime, exponent), ascending."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def phi_sieve(limit: int):
    """Totients of 0..limit; phi[0] = 0 by convention."""
    ph = list(range(limit + 1))
    for p in range(2, limit + 1):
        if ph[p] == p:
            for m in range(p, limit + 1, p):
                ph[m] -= ph[m] // p
    if limit >= 0:
        ph[0] = 0
    return ph


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) with the standard conventions at 2, -1 and 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    # factor out 2 from the bottom
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # Jacobi symbol by reciprocity for odd n > 0
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None, typed=True)
def field_discriminant(d_tag: int) -> int:
    """Discriminant of Q(sqrt(D)): D itself if D = 1 mod 4, else 4D.

    The tag is checked once per process: the cache is typed, so a tag that
    equals a valid one, such as -3.0, misses it and is refused.
    """
    check_field_tag(d_tag)
    return d_tag if d_tag % 4 == 1 else 4 * d_tag


def units_mod(d: int):
    """Residues mod d coprime to d.  For d = 1 this is (0,), the single class."""
    if d < 1:
        raise ValueError("units_mod expects d >= 1")
    return _struck_units(d)[0] if d > 1 else (0,)


@lru_cache(maxsize=256)
def _struck_units(d: int):
    """The units a in [1, d], ascending (for d = 1, a = 1 alone), and their
    mask, the integer whose byte a - 1 is 0xff at each unit a and 0
    elsewhere: one byte per a in [1, d], with the multiples of each prime
    of d struck out.

    Kept for the last 256 orders, like the scan results of the pairs: a
    sweep over orders asks for each order on consecutive calls, and a
    sweep over fields asks for 3 orders in all.  `run --claims all` needs
    300 orders; under the bound it strikes 393 times where it would strike
    300, each strike d bytes."""
    flags = bytearray(b"\xff") * d
    for p, _ in factorize(d):
        flags[p - 1::p] = bytes(d // p)
    return tuple(compress(range(1, d + 1), flags)), int.from_bytes(flags, "little")


@lru_cache(maxsize=None)
def _sieve(size: int):
    """For 0 <= a < size, the smallest prime factor of a if a is composite,
    else 0; and the a in [1, size) where it is 0, ascending: 1 and the
    primes, the entries of a field table that are read, not multiplied.
    Callers round size up to a power of two, so a sweep over growing
    moduli builds a few of these, each on its first use."""
    spf = [0] * size
    for p in range(isqrt(size - 1), 1, -1):
        spf[p * p::p] = [p] * ((size - 1 - p * p) // p + 1)
    return spf, tuple(compress(range(1, size), map(not_, spf[1:])))


def _euler_symbol(d_tag: int, p: int) -> int:
    """(D/p) for an odd prime p by Euler's criterion: D^((p-1)/2) mod p is
    0, 1 or p - 1, which stands for -1."""
    v = pow(d_tag, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


@lru_cache(maxsize=None)
def _field_table(d_tag: int) -> bytearray:
    """The values (D/a) for a = 0, 1, 2, ... as far as some scan of the
    field has read, each stored mod 3 in one byte: 0, 1 and 2 for 0, +1
    and -1, so that a product of two entries, reduced mod 3, is the entry
    of the product.  It starts at a = 0 alone; _grow fills it.

    Every field's table is kept, unlike the per-pair and per-order memos:
    an evicted table would read its primes by Euler's criterion again."""
    return bytearray(1)


# _TIMES[t] maps an entry x of a field table to x * t mod 3, the entry of a
# product, for t = 0, 1 and 2 (which stands for -1)
_TIMES = (bytes(256), bytes(range(256)), bytes.maketrans(b"\1\2", b"\2\1"))

# flags of the a with (D/a) = +1, and with (D/a) = -1, from the entries of
# a field table
_PLUS_FLAGS = bytes.maketrans(b"\2", b"\0")
_MINUS_FLAGS = bytes.maketrans(b"\1\2", b"\0\1")

# extensions of at least this many entries are filled by slices
_SLICE_FILL_FROM = 64


def _grow(table: bytearray, d_tag: int, n: int) -> None:
    """Fill the field table of D up to a = n by complete multiplicativity,
    (D/a) = (D/p)(D/(a/p)) for a prime p | a.  Only 1 and primes are read
    directly, once each and in increasing a: kronecker at 1 and 2, where
    the symbol's own conventions apply, and Euler's criterion at odd
    primes.

    An extension shorter than _SLICE_FILL_FROM is filled entry by entry,
    in increasing a, from the smallest prime p | a.  A longer one, from
    lo = len(table), first reads its 1 and primes; then, for each prime
    p <= sqrt(n) from the largest down, one slice assignment writes every
    multiple p*m >= lo, m >= 2, from the entry at m.  A composite's last
    write comes from its smallest prime p and reads m = a/p, whose primes
    are all >= p, so m is final by then, unless p | m and m >= lo: a slice
    reads the table as it was before the pass, so the pass is repeated
    while p^j * lo <= n."""
    lo = len(table)
    spf, reads = _sieve(1 << n.bit_length())
    if n + 1 - lo < _SLICE_FILL_FROM:
        for a in range(lo, n + 1):
            p = spf[a]
            table.append(table[p] * table[a // p] % 3 if p
                         else _euler_symbol(d_tag, a) % 3 if a > 2
                         else kronecker(d_tag, a) % 3)
        return
    table.extend(bytes(n + 1 - lo))
    for a in reads[bisect_left(reads, lo):bisect_right(reads, n)]:
        table[a] = _euler_symbol(d_tag, a) % 3 if a > 2 else kronecker(d_tag, a) % 3
    for p in reversed(reads[1:bisect_right(reads, isqrt(n))]):
        m = max(2, -(-lo // p))
        times = _TIMES[table[p]]
        power = 1
        while power * lo <= n:
            table[p * m::p] = table[m:n // p + 1].translate(times)
            power *= p


@lru_cache(maxsize=256)
def _character_defined_mod(d: int, d_tag: int):
    """Scan test: is a -> kronecker(D, a) a nonvanishing character mod d?

    Checks constancy on residue classes over a in [1, 10d], nonvanishing on
    units, and nontriviality.  Returns the units of [1, d] with (D/a) = +1
    and those with (D/a) = -1, as two ascending tuples, if all three hold;
    these are the orbit sets.  Returns None otherwise.

    The values come from the field's one table of (D/a), shared by the
    scans of every order.  The table assumes no periodicity, which is what
    the scan tests.  The units of [1, d] and their mask come from a
    per-order cache.  The scan reads the units' values in its first
    period, a in [1, d], and compares each later period k (a in
    [kd + 1, kd + d]) with the first as one integer, the period's bytes
    masked to the units.  Period k grows the table, where it is short,
    through period 2k - 1, capped at the last unit below 10d: a full scan
    grows it at most four times after the first period, and a scan that
    fails at period 1 reads no further than that period.

    The result is kept for the last 256 pairs, as is_reducible's verdict
    is, and is asked about the same pairs: orbit_sets reads it again soon
    after is_reducible has.  `run --claims all` needs 2402 pairs; under the
    bound it scans 2546 times, as is_reducible asks again about 144 pairs
    it evicted.
    """
    table = _field_table(d_tag)
    units, mask = _struck_units(d)
    last = units[-1]
    if len(table) <= last:
        _grow(table, d_tag, last)
    period = int.from_bytes(table[1:last + 1], "little") & mask
    # byte a - 1 holds (D/a) at each unit a and 0 at every other a
    first = period.to_bytes(last, "little")
    if first.count(0) != last - len(units):
        return None
    for base in range(d, 10 * d, d):
        if len(table) <= base + last:
            _grow(table, d_tag, min(2 * base - d, 9 * d) + last)
        if int.from_bytes(table[base + 1:base + last + 1], "little") & mask != period:
            return None
    span = range(1, last + 1)
    minus = tuple(compress(span, first.translate(_MINUS_FLAGS)))
    if not minus:
        return None
    return tuple(compress(span, first.translate(_PLUS_FLAGS))), minus


@lru_cache(maxsize=256, typed=True)
def is_reducible(d: int, d_tag: int) -> bool:
    """Does the d-th cyclotomic polynomial factor over Q(sqrt(D))?

    Criterion: the field discriminant divides d.  Cross-checked against the
    character scan; disagreement raises InternalCheckError.  The cache is
    typed, so a tag that equals a valid one, such as -3.0, misses it and is
    refused by field_discriminant.

    The verdict is kept for the last 256 pairs: a sweep asks about a pair
    again within a few calls, and a sweep over r keeps asking about new
    ones.  Over r <= 160 (phi(r) >= 10) mc_with_witness asks 466 times for
    233 pairs, each again within 8 calls, and evicts nothing; mc_for_field
    over 1824 fields and 3 orders asks for 5472 pairs and hits 4 times,
    each on the call after the first.  `run --claims all` asks 5148 times
    for 2402 pairs; the bound costs 144 of its 2746 hits, each one scan by
    _character_defined_mod again.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"is_reducible expects an int d >= 1, got {d!r}")
    by_conductor = d % abs(field_discriminant(d_tag)) == 0
    by_character = _character_defined_mod(d, d_tag) is not None
    if by_conductor != by_character:
        raise InternalCheckError(
            f"reducibility criteria disagree for d={d}, D={d_tag}: "
            f"conductor={by_conductor}, character={by_character}"
        )
    return by_conductor


class OrbitSet(_Frozen):
    """Exponents of one irreducible factor's set of primitive d-th roots."""

    _fields = ("d", "members", "label", "d_field")

    def __init__(self, d: int, members: tuple, label: str, d_field: Optional[int]):
        self.__dict__.update(d=d, members=members, label=label, d_field=d_field)
        if self.label not in (FULL, PLUS, MINUS):
            raise ValueError(f"bad orbit label {self.label!r}")
        if (self.d_field is None) != (self.label == FULL):
            raise ValueError("d_field must be set exactly for PLUS/MINUS orbits")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("orbit members must be sorted and distinct")
        for a in self.members:
            if not (1 <= a < self.d) or gcd(a, self.d) != 1:
                raise ValueError(f"orbit member {a} is not a unit in [1, {self.d})")

    def __len__(self):
        return len(self.members)


def _orbit(d: int, members: tuple, label: str, d_field) -> OrbitSet:
    """An OrbitSet built without the public constructor's checks, for
    members that are ascending units mod d by construction."""
    orbit = object.__new__(OrbitSet)
    orbit.__dict__.update(d=d, members=members, label=label, d_field=d_field)
    return orbit


def full_orbit(d: int) -> OrbitSet:
    if d < 3:
        raise ValueError("orbits are defined for d >= 3")
    return _orbit(d, units_mod(d), FULL, None)


def orbit_sets(d: int, d_tag: int):
    """The (PLUS, MINUS) Kronecker orbits for a reducible (d, D) pair: the
    classes of the character scan behind is_reducible."""
    if not is_reducible(d, d_tag):
        raise ValueError(f"no splitting: cyclotomic polynomial of order {d} "
                         f"is irreducible over Q(sqrt({d_tag}))")
    plus, minus = _character_defined_mod(d, d_tag)
    if len(plus) != len(minus):
        raise InternalCheckError(f"unbalanced orbits for d={d}, D={d_tag}")
    return _orbit(d, plus, PLUS, d_tag), _orbit(d, minus, MINUS, d_tag)


def suitable_fields(d: int):
    """All squarefree D < 0 whose quadratic field sits inside the d-th
    cyclotomic field, i.e. the splitting fields; ordered by |D|."""
    if d < 3:
        raise ValueError("suitable_fields expects d >= 3")
    divisors = [1]
    for p, e in factorize(d):
        divisors = [q * p ** k for q in divisors for k in range(e + 1)]
    out = []
    # -1 and -2 (f = 1, 2) pass neither test: they are no discriminant
    for f in divisors:
        delta = -f
        if delta % 4 == 1 and is_squarefree(delta):
            out.append(delta)
        elif delta % 4 == 0:
            quarter = delta // 4
            if is_squarefree(quarter) and quarter % 4 in (2, 3):
                out.append(quarter)
    result = tuple(sorted(set(out), key=abs))
    for d_tag in result:
        if not is_reducible(d, d_tag):
            raise InternalCheckError(f"suitable field {d_tag} fails reducibility for d={d}")
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int):
    """Integer coefficient tuple (low degree first) of the d-th cyclotomic
    polynomial, via exact division of x^d - 1 by the proper divisors' factors."""
    if d < 1:
        raise ValueError("cyclotomic_polynomial expects d >= 1")
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly = _poly_divide_exact(poly, cyclotomic_polynomial(e))
    return tuple(poly)


def _poly_divide_exact(num, den):
    """Exact division of integer polynomials, low degree first."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // den[-1]
        out[k] = q
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out
