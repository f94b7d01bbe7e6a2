"""Exact arithmetic in coefficient fields carrying a primitive r-th root of unity.

Three field families are supported, all exact (no floating point anywhere):

* the cyclotomic field Q(theta) for an odd prime r.  Elements are stored as
  an integer coefficient vector for 1, theta, ..., theta^(r-2) over a single
  positive denominator, reduced modulo the r-th cyclotomic polynomial and
  normalised so that gcd(content, denominator) = 1.  Structural equality of
  the stored value is field equality.
* prime fields GF(p) with p = 1 (mod r).  Elements are residues in [0, p).
* extension fields GF(p^k) with r | p^k - 1 and p != r.  Elements are
  coefficient tuples of length k (constant term first) modulo a monic
  irreducible polynomial.

Element values are plain hashable Python objects; all arithmetic goes through
the owning FieldContext.  Contexts are immutable after construction; each
fixes theta and theta_pow = (theta^0, ..., theta^(r-1)) when it is built.

Two primitives serve the structured operators, whose entries are powers of
theta times one scalar.  mul_theta_power(a, e) is a * theta^e: one modular
multiply over GF(p), a rotation of the coefficient vector over Q(theta),
and a table lookup over GF(p^k) (a mul above the table bound).  Over
Q(theta) every product with a power of theta is that rotation (mul,
_product).  dot reduces once over GF(p), one residue of the sum, and over
Q(theta), which sums its products over one denominator and normalises
once; GF(p^k) adds its products with add.  fourier_apply(vec, stride,
table), one method for every family, applies the Fourier kernel
table[i][x] = scale * theta^(i*x) in one tensor slot, one dot per output
entry; at scale 1 its entries are powers of theta.
pi_map reads a matrix through mul_theta_power alone: r calls per
theta class of its entries register their codes, and each row is packed
by _pack_signed into one int whose lane j holds entry j's (theta class
+ 1, exponent), 0 for a zero entry, with a carry bit above the exponent.
Rows are matched on those ints: a row of n * A_t is one add of the slot-t
digits masked to the row's support and a lane-wise subtraction of r where
an exponent passed r - 1, and a row of n * B_t is two masks and two
shifts, lanes with slot-t digit at least 1 moving down stride lanes and
digit-0 lanes up (r - 1) * stride lanes.

FieldContext.product_rows(factors, rows) is the bulk route for
left-multiplying rows by operators: the rows of the product of the factors
times M, with M the identity when rows is left out.  It materialises a
product and applies an operator to a few columns.  Every context names a
row_class, which holds M's rows as whole Python ints: M is loaded into it,
every factor's mul_packed left-multiplies it, right to left, and the rows
are read back.

* PackedRows (GF(p^k), GF(p) being k = 1) holds row j as k planes: plane c
  packs the x^c coefficients of the row's entries in the modulus basis,
  one lane per entry.  A value acts on the planes by its k x k
  multiplication matrix over GF(p), the regular representation (Lidl and
  Niederreiter, Finite Fields); a table's values are all scale * theta^e,
  so their r matrices are cached per scale.  Lanes are reduced mod p only
  when one could overflow, and once at the end: adding planes and
  multiplying them by small integers never carries from one lane into the
  next while every lane stays below 2^(8 * width - 1).  After a reduction
  every lane is below p, and no factor grows a lane by more than a Fourier
  row sum, at most r * k * (p - 1), so the lanes are the least multiple of
  8 bytes that holds r * k * p^2 below that limit.  Delayed reduction over
  word-size primes follows Dumas, Giorgi and Pernet 2008 (FFLAS-FFPACK).
* PlaneRows (Q(theta)) holds one positive denominator for the matrix and,
  per row, r ints, its planes: plane k packs the theta^k coefficients of
  the row's entries in the redundant basis 1, theta, ..., theta^(r-1) of
  Z[x]/(x^r - 1) (Bosma 1990), one signed 64-bit lane per entry.  theta^e
  rotates the planes, a Fourier row is a sum of rotated planes, and a
  scale convolves the planes with its numerators and multiplies the
  denominator once.  Reading back reduces mod the cyclotomic polynomial
  (plane k minus plane r - 1) on whole ints and normalises each distinct
  entry with one gcd.  Lanes are tracked from a bound; before one could
  reach 2^62 the canonical entries are loaded again, in wider lanes when
  even they do not fit 64 bits.

Both pack by Kronecker substitution (Harvey 2009); lane order is the host's
byte order (lane j is entry j on a little-endian host), shared by packing
and unpacking.

FieldContext.closure_steps(n, ops) gives a breadth-first group count its
start state and one step per generator, built by the row_class.  Over
GF(p^k) (PackedRows.closure_steps) a state is one int holding the whole
matrix, plane-major: lane block c * n + j packs plane c of row j, and
every lane is in [0, p), the entries' coefficients, so equal ints are
equal matrices.  Each generator is compiled once, by running its
mul_packed on a recorder (_StepRecorder): a monomial or Fourier call
records (source row, target row, value) entries, each value expanded
through its k x k matrix (_plane_kernels) into moves of a source block
onto a target block times an integer coefficient, kept by coefficient,
then by shift.  A step is then sum_c sum ((c * S) & mask) shifted, one
mask per coefficient and shift, and one reduction of the whole int, x -
(((x * m) >> s) & mask) * p, with m, s and the lane mask fixed per prime
and lane width (lane_division; Granlund and Montgomery 1994), exact for
lanes below 2^N, N = (8 * width - bits(p)) // 2 - 1.  The lanes are the
narrowest of 2, 4, 8, 16, ... bytes with 2^N above the largest lane a
compiled step can make, so no lane is ever reduced on its own.  A Fourier
factor takes one stage, or three where they need fewer masks: Bluestein's
factorisation theta^(i*x) = theta^(h*i^2) * theta^(-h*(i-x)^2) *
theta^(h*x^2), h = (r + 1) / 2, into two diagonal stages and a circulant
one (Bluestein 1970), which over GF(p) from r = 5 on needs fewer masks
than the r^2 moves of the kernel.  Any other operator (mul_rows, a dense
generator) unpacks the state into rows, runs DenseMatrix.mul_rows and
packs the product.  Over Q(theta) a state is (den, width, rows) with the
planes reduced mod the cyclotomic polynomial, gcd(den, every lane) = 1
and the narrowest lanes, the matrix's canonical form; a step loads it
into PlaneRows, runs the op's mul_packed and takes state() again.

GF(p^k) with q <= MAX_TABLE_ORDER = 2^16 multiplies and inverts by log and
exp tables (Lidl and Niederreiter, Finite Fields, ch. 10), built by half
lookups, and adds coefficient by coefficient.  Larger fields multiply by
convolution.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction


class InvalidFieldSpec(ValueError):
    """The field specification violates a divisibility or irreducibility requirement."""


# Largest field order q = p^k accepted.  Setting up a field factors q - 1
# (or p - 1) by trial division and, for k > 1, searches for an irreducible
# polynomial of degree k; up to 2^40 both take about a second at most.
MAX_FIELD_ORDER = 2 ** 40

# Largest q = p^k for which an extension field builds log and exp tables.
MAX_TABLE_ORDER = 2 ** 16


def check_field_order(p, k):
    """Refuse q = p^k above MAX_FIELD_ORDER, before any primality test or
    polynomial search; p^k is not formed when k alone rules it out."""
    if k > MAX_FIELD_ORDER.bit_length() or (k >= 1 and p ** k > MAX_FIELD_ORDER):
        raise InvalidFieldSpec(f"field order {p}^{k} exceeds the limit "
                               f"2^{MAX_FIELD_ORDER.bit_length() - 1}")


@dataclass(frozen=True)
class FieldSpec:
    """Description of a coefficient field; kind is one of
    "cyclotomic", "prime", "extension", "auto-prime", "auto-char2"."""

    kind: str
    r: int
    p: int | None = None
    k: int | None = None
    modulus: tuple[int, ...] | None = None  # ascending coefficients, monic


# ---------------------------------------------------------------------------
# integer / polynomial helpers


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n):
    """Distinct prime factors of n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def legendre(a, r):
    """Legendre symbol (a|r) for an odd prime r, via Euler's criterion."""
    a %= r
    if a == 0:
        return 0
    t = pow(a, (r - 1) // 2, r)
    return 1 if t == 1 else -1


def smallest_primitive_root(p):
    facs = prime_factors(p - 1)
    for g in itertools.count(2):
        if all(pow(g, (p - 1) // q, p) != 1 for q in facs):
            return g
    raise AssertionError


@functools.lru_cache(maxsize=64)
def _every_lane(value, lanes, width=8):
    """The int with value in each of its lanes of width bytes."""
    return int.from_bytes(value.to_bytes(width, sys.byteorder) * lanes, sys.byteorder)


# polynomials over GF(p): lists/tuples of ascending coefficients


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, mod, p):
    """a * b modulo the monic mod of degree k over GF(p), as a tuple of k
    residues.  The convolution and the reduction run on plain integers;
    only each cancelled leading coefficient and the k results take % p."""
    k = len(mod) - 1
    conv = [0] * max(len(a) + len(b) - 1, k)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    for m in range(len(conv) - 1, k - 1, -1):
        c = conv[m] % p
        if c:
            for i in range(k):
                conv[m - k + i] -= c * mod[i]
    return tuple(x % p for x in conv[:k])


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(_poly_trim(a)), list(_poly_trim(b))
    while b:
        # a mod b
        inv_lead = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            c = a[-1] * inv_lead % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            a = list(_poly_trim(a))
        a, b = b, a
    return a


def is_irreducible(f, p):
    """Rabin irreducibility test for a monic polynomial f (ascending coeffs) over GF(p)."""
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = [0, 1]
    # x^(p^k) == x (mod f)
    t = x
    for _ in range(k):
        t = _poly_powmod(t, p, f, p)
    if _poly_trim([(a - b) % p for a, b in itertools.zip_longest(t, x, fillvalue=0)]):
        return False
    for q in prime_factors(k):
        t = x
        for _ in range(k // q):
            t = _poly_powmod(t, p, f, p)
        diff = [(a - b) % p for a, b in itertools.zip_longest(t, x, fillvalue=0)]
        g = _poly_gcd(diff, f, p)
        if len(g) != 1:
            return False
    return True


def find_irreducible_polynomial(p, k):
    """Lexicographically smallest monic irreducible of degree k over GF(p)
    (non-leading coefficients compared high-degree first).  Returns ascending
    coefficients of length k+1."""
    if not is_prime(p):
        raise InvalidFieldSpec(f"{p} is not prime")
    if k < 1:
        raise InvalidFieldSpec("degree must be >= 1")
    for n in range(p ** k):
        digits = []
        m = n
        for _ in range(k):
            digits.append(m % p)
            m //= p
        f = tuple(digits) + (1,)
        if is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# field contexts


class FieldContext:
    """Base class: exact field arithmetic plus a distinguished primitive
    r-th root of unity.  Subclasses fix the element encoding, a plain
    hashable value, and define add, sub, neg, mul, dot, inv, from_int, the
    serialization methods serialize_elem, parse_elem, spec_json and
    describe, and row_class; the rest is shared.  row is the form of every
    DenseMatrix row over the context: tuple, or bytes over GF(p) with
    p < 256, one byte per entry, which the garbage collector does not
    track."""

    kind = None  # "cyclotomic" | "prime" | "extension"
    char = None
    row = tuple

    def mul_theta_power(self, a, e):
        """a * theta^e for any integer e."""
        return self.mul(a, self.theta_pow[e % self.r])

    def fourier_apply(self, vec, stride, table):
        """scale * C applied to vec: on each fibre of r entries stride apart,
        out_i = scale * sum_x theta^(i*x) v_x, one dot per output entry.
        table[i][x] is scale * theta^(i*x), so table[0][0] is the scale.
        All-zero fibres are skipped."""
        r = self.r
        n = len(vec)
        block = stride * r
        zero = self.zero
        out = [zero] * n
        dot = self.dot
        for base in range(0, n, block):
            for off in range(base, base + stride):
                vals = vec[off:off + block:stride]
                if vals.count(zero) == r:
                    continue  # a zero fibre maps to zero
                for i, row in enumerate(table):
                    out[off + i * stride] = dot(row, vals)
        return out

    def product_rows(self, factors, rows=None):
        """The rows of the product of the operators factors (applied right
        to left, at least one) times M, for M given as a tuple of row tuples
        or the identity when rows is None: M is loaded into the context's
        row_class, each factor's mul_packed multiplies it, right to left,
        and the rows are read back."""
        packer = self.row_class
        if rows is None:
            packed = packer.identity(self, factors[0].n)
        else:
            packed = packer.load(self, rows)
        for f in reversed(factors):
            f.mul_packed(packed)
        return packed.unpacked()

    def closure_steps(self, n, ops):
        """(start, steps) for a breadth-first count of the group generated
        by ops, n x n operators or matrices over this field with
        mul_packed: start is the identity's state, steps[i] maps the state
        of M to that of ops[i] * M, and two states are equal exactly when
        their matrices are.  The context's row_class defines the states and
        builds the steps from the ops' mul_packed."""
        return self.row_class.closure_steps(self, n, ops)

    def pow(self, a, e):
        """a^e by squaring; a^-e is (a^-1)^e."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- the distinguished root of unity --

    def _set_theta(self, theta):
        """Fix theta, once, when the context is built: theta_pow is the
        tuple (theta^0, ..., theta^(r-1)) and _dlog maps each power to its
        exponent."""
        self._dlog = {}  # mul may look its factors up while the powers are built
        powers = [self.one]
        for _ in range(self.r - 1):
            powers.append(self.mul(powers[-1], theta))
        self.theta = theta
        self.theta_pow = tuple(powers)
        self._dlog = {v: e for e, v in enumerate(powers)}

    def dlog_theta(self, a):
        """Exponent e in [0, r) with a = theta^e, or None."""
        return self._dlog.get(a)


# array typecode of the signed machine integer of each width in bytes
_ARRAY_TYPES = {array(code).itemsize: code for code in "hiq"}


def _pack_signed(values, lanes, width):
    """Pack the flat sequence values, each in [-2^(8 * width - 1),
    2^(8 * width - 1)), lanes at a time: each int is sum_j v_j * 2^(8 *
    width * j) over its lanes values v_j.  In two's complement with the top
    bit of every lane flipped, a lane holds its value plus 2^(8 * width - 1),
    which is never negative, so the lanes do not borrow from one another
    until that constant is taken off the whole int.  Lanes of 2, 4 or 8
    bytes are written by one array of machine integers."""
    if width in _ARRAY_TYPES:
        raw = memoryview(array(_ARRAY_TYPES[width], values).tobytes())
    else:
        raw = b"".join(v.to_bytes(width, sys.byteorder, signed=True) for v in values)
    size, order = lanes * width, sys.byteorder
    top = _every_lane(1 << (8 * width - 1), lanes, width)
    return [(int.from_bytes(raw[i:i + size], order) ^ top) - top
            for i in range(0, len(raw), size)]


def _unpack_signed(ints, lanes, width):
    """The lanes of each int in ints, one int after another: the inverse of
    _pack_signed."""
    top = itertools.repeat(_every_lane(1 << (8 * width - 1), lanes, width))
    to_bytes = operator.methodcaller("to_bytes", lanes * width, sys.byteorder)
    raw = b"".join(map(to_bytes, map(operator.xor, map(operator.add, ints, top), top)))
    if width == 8:
        return array("q", raw)
    return [int.from_bytes(raw[i:i + width], sys.byteorder, signed=True)
            for i in range(0, len(raw), width)]


def _lanes_below(ints, lanes, width, bits):
    """Whether every signed lane of every int in ints lies in
    [-2^bits, 2^bits), bits < 8 * width - 1.  Adding 2^bits to each lane
    then leaves every lane in [0, 2^(bits + 1)), with no bit from bits + 1
    up, exactly when it did: a lane out of range, read from the sum, shows
    such a bit, or a borrow that sets the top bit of the last lane."""
    low = _every_lane(1 << bits, lanes, width)
    high = _every_lane((1 << 8 * width) - (2 << bits), lanes, width)
    seen = functools.reduce(operator.or_, map(operator.add, ints, itertools.repeat(low)), 0)
    return not seen & high


@functools.lru_cache(maxsize=None)
def _fourier_picks(r):
    """For each i, the itemgetter that takes from a fibre's r rows of r
    planes, flattened, plane k - i*x of row x for x in [0, r), for each k in
    turn: the r terms of plane k of sum_x theta^(i*x) * row x."""
    return [operator.itemgetter(*[x * r + (k - i * x) % r for k in range(r) for x in range(r)])
            for i in range(r)]


class PlaneRows:
    """The rows of a matrix over Q(theta) as planes of integers over one
    positive common denominator den.  Row i is a tuple of r ints: plane k
    packs den times the theta^k coefficients of the row's entries in the
    redundant basis 1, theta, ..., theta^(r - 1) of Q[x]/(x^r - 1) (Bosma
    1990), one signed lane of width bytes per entry (Kronecker substitution,
    as PackedRows packs GF(p)).  Times theta^e a row's planes rotate; times
    a scale s they are convolved with s's numerators mod x^r - 1 and den is
    multiplied by s's denominator, once for the matrix.

    Every lane is at most bound in absolute value, and bound stays below
    limit = 2^(8 * width - 2), so plane k minus plane r - 1, the reduction
    mod the cyclotomic polynomial, still fits a lane.  monomial, fourier and
    mul_rows replace the rows by op * rows for one operator; when an
    operator could carry bound to limit, the canonical entries are loaded
    again first, in wider lanes if even they need it."""

    __slots__ = ("ctx", "lanes", "width", "den", "rows", "bound")

    @classmethod
    def load(cls, ctx, rows):
        """rows of field values, packed."""
        packed = cls.__new__(cls)
        packed.ctx, packed.lanes = ctx, len(rows[0])
        packed._load(rows)
        return packed

    @classmethod
    def identity(cls, ctx, n):
        """The n x n identity: den 1, and plane 0 of row i the unit vector
        e_i, the int 2^(64 * i).  Built directly: load takes 10 to 150
        times as long (up to 1.6 ms at n = 49), once per product and per
        closure."""
        packed = cls.__new__(cls)
        packed.ctx, packed.lanes, packed.width, packed.den, packed.bound = ctx, n, 8, 1, 1
        packed.rows = [(1 << 64 * i,) + (0,) * (ctx.r - 1) for i in range(n)]
        return packed

    def _load(self, rows, growth=1):
        """Pack rows of field values over their least common denominator,
        in the narrowest lanes, a multiple of 64 bits, with bound * growth
        below limit."""
        entries = set(itertools.chain.from_iterable(rows))
        den = math.lcm(*(d for _, d in entries))
        scaled = {a: tuple(x * (den // a[1]) for x in a[0]) for a in entries}
        bound = max(abs(x) for nums in scaled.values() for x in nums)
        width = 8
        while bound * growth >= 1 << (8 * width - 2):
            width += 8
        get, chain = scaled.__getitem__, itertools.chain.from_iterable
        planes = iter(_pack_signed(chain(chain(zip(*map(get, row))) for row in rows),
                                   self.lanes, width))
        self.rows = [row + (0,) for row in zip(*[planes] * (self.ctx.r - 1))]
        self.den, self.bound, self.width = den, bound, width

    @classmethod
    def closure_steps(cls, ctx, n, ops):
        """FieldContext.closure_steps over Q(theta): a state is state(), and
        a step loads it (from_state), runs the op's mul_packed and returns
        state() of the result."""
        def packed_step(mul_packed):
            def run(state):
                packed = cls.from_state(ctx, state, n)
                mul_packed(packed)
                return packed.state()
            return run
        return cls.identity(ctx, n).state(), [packed_step(op.mul_packed) for op in ops]

    @classmethod
    def from_state(cls, ctx, state, lanes):
        """The rows of a state(), with bound 2^(4 * width) when every lane
        is that small (the common case, tested on whole ints), else loaded
        again."""
        packed = cls.__new__(cls)
        packed.ctx, packed.lanes = ctx, lanes
        packed.den, packed.width, packed.rows = state
        bits = 4 * packed.width
        if _lanes_below(itertools.chain.from_iterable(packed.rows), lanes, packed.width, bits):
            packed.bound = 1 << bits
        else:
            packed._load(packed.unpacked())
        return packed

    def _grow(self, growth):
        """Make room for lanes multiplied by at most growth."""
        if self.bound * growth >= 1 << (8 * self.width - 2):
            self._load(self.unpacked(), growth)
        self.bound *= growth

    def _scale(self, scale):
        """Multiply every row by the field value scale: plane k becomes
        sum_a c_a * plane (k - a) over the nonzero numerators c_a."""
        nums, d = scale
        terms = [(a, c) for a, c in enumerate(nums) if c]
        self._grow(sum(abs(c) for _, c in terms))
        r, size = self.ctx.r, len(terms)
        coefs = [c for _ in range(r) for _, c in terms]
        pick = operator.itemgetter(*[(k - a) % r for k in range(r) for a, _ in terms])
        mul = operator.mul
        self.rows = [tuple(map(sum, zip(*[map(mul, coefs, pick(row))] * size)))
                     for row in self.rows]
        self.den *= d

    def monomial(self, perm, expo, table):
        """Row j, times table[expo[j]] = scale * theta^expo[j], becomes row
        perm[j]."""
        out = [None] * len(perm)
        for p, e, row in zip(perm, expo, self.rows):
            out[p] = row[-e:] + row[:-e]
        self.rows = out
        if table[0] != self.ctx.one:
            self._scale(table[0])

    def fourier(self, stride, table):
        """On each fibre of r rows stride apart, output row i is
        table[0][0] * sum_x theta^(i*x) * row x."""
        r = len(table)
        self._grow(r)
        picks = _fourier_picks(r)
        rows, block = self.rows, stride * r
        out = [None] * len(rows)
        for base in range(0, len(rows), block):
            for off in range(base, base + stride):
                planes = tuple(itertools.chain.from_iterable(rows[off:off + block:stride]))
                for i, pick in enumerate(picks):
                    out[off + i * stride] = tuple(map(sum, zip(*[iter(pick(planes))] * r)))
        self.rows = out
        if table[0][0] != self.ctx.one:
            self._scale(table[0][0])

    def mul_rows(self, mul_rows):
        """Any other operator: its mul_rows on the unpacked rows."""
        self._load(mul_rows(self.unpacked()))

    def _lanes(self, ints):
        return _unpack_signed(ints, self.lanes, self.width)

    def unpacked(self):
        """The rows as tuples of field values in normal form: the planes
        reduced mod the cyclotomic polynomial (theta^(r - 1) is
        -1 - theta - ... - theta^(r - 2)) as whole ints, and each entry
        divided by gcd(den, its numerators), one math.gcd per distinct
        entry."""
        den, gcd, lanes = self.den, math.gcd, self.lanes

        @functools.lru_cache(maxsize=None)
        def entry(nums):
            g = gcd(den, *nums)
            return (nums, den) if g == 1 else (tuple(x // g for x in nums), den // g)
        flat = iter(self._lanes([x - row[-1] for row in self.rows for x in row[:-1]]))
        planes = zip(*[flat] * lanes)
        return tuple(tuple(map(entry, zip(*row))) for row in zip(*[planes] * (self.ctx.r - 1)))

    def state(self):
        """(den, width, rows) with the planes reduced mod the cyclotomic
        polynomial (plane r - 1 is 0), gcd(den, every lane) = 1 and width
        the narrowest that holds the lanes: the matrix's canonical form, so
        two states are equal exactly when their matrices are.  A prime
        dividing den and every lane divides every packed int, so the lanes
        are read only when gcd(den, the ints) > 1; dividing an int by a
        common divisor of its lanes divides each lane."""
        sub, repeat = operator.sub, itertools.repeat
        rows = [tuple(map(sub, row, repeat(row[-1]))) for row in self.rows]
        den, width = self.den, self.width
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        if g > 1:
            g = math.gcd(g, *self._lanes(itertools.chain.from_iterable(rows)))
        if g > 1:
            rows = [tuple(map(operator.floordiv, row, repeat(g))) for row in rows]
            den //= g
        if width > 8:
            top = max(map(abs, self._lanes(itertools.chain.from_iterable(rows))))
            narrow = 8
            while top >= 1 << (8 * narrow - 1):
                narrow += 8
            rows = [tuple(_pack_signed(self._lanes(row), self.lanes, narrow)) for row in rows]
            width = narrow
        return den, width, tuple(rows)


class CyclotomicContext(FieldContext):
    """Q(theta) for theta a primitive r-th root of unity, r an odd prime.

    Elements are pairs (nums, den): nums a tuple of r-1 integers (the
    coefficients of 1, theta, ..., theta^(r-2)), den a positive integer with
    gcd(gcd(nums), den) = 1.
    """

    kind = "cyclotomic"
    char = 0
    row_class = PlaneRows

    def __init__(self, r):
        if not is_prime(r) or r == 2:
            raise InvalidFieldSpec(f"r = {r} must be an odd prime")
        self.r = r
        self._d = r - 1
        self.zero = ((0,) * self._d, 1)
        self.one = ((1,) + (0,) * (self._d - 1), 1)
        self._set_theta(((0, 1) + (0,) * (self._d - 2), 1))

    def _norm(self, nums, den):
        if den < 0:
            nums = [-x for x in nums]
            den = -den
        if den != 1:
            g = den
            for x in nums:
                g = math.gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                nums = [x // g for x in nums]
                den //= g
        return (tuple(nums), den)

    def add(self, a, b):
        (na, da), (nb, db) = a, b
        if da == db:
            return self._norm([x + y for x, y in zip(na, nb)], da)
        return self._norm([x * db + y * da for x, y in zip(na, nb)], da * db)

    def sub(self, a, b):
        (na, da), (nb, db) = a, b
        if da == db:
            return self._norm([x - y for x, y in zip(na, nb)], da)
        return self._norm([x * db - y * da for x, y in zip(na, nb)], da * db)

    def neg(self, a):
        nums, den = a
        return (tuple(-x for x in nums), den)

    def _product(self, a, b):
        """a * b, not normalised: its coefficients of theta^0, ..., theta^(r-1)
        and its denominator.  A factor that is a power of theta rotates the
        other."""
        e = self._dlog.get(a)
        if e is None and b in self._dlog:
            e, a, b = self._dlog[b], b, a
        (na, da), (nb, db) = a, b
        if e is not None:
            full = nb + (0,)
            return full[-e:] + full[:-e], db
        conv = [0] * (2 * self._d - 1)
        for i, ai in enumerate(na):
            if ai:
                for j, bj in enumerate(nb):
                    conv[i + j] += ai * bj
        for m in range(self.r, len(conv)):  # theta^r = 1
            conv[m - self.r] += conv[m]
        return conv[:self.r], da * db

    def _reduced(self, nums, den):
        """nums over den in normal form; theta^(r-1) = -(1 + ... + theta^(r-2))."""
        high = nums[-1]
        return self._norm([x - high for x in nums[:-1]], den)

    def mul(self, a, b):
        e = self._dlog.get(a)
        if e is not None:  # a left factor theta^e, as in a monomial table
            return self._rotate(b, e)
        return self._reduced(*self._product(a, b))

    def dot(self, xs, ys):
        """sum(x * y) normalised once: the products are summed over the lcm
        of their denominators."""
        zero = self.zero
        terms = [self._product(x, y) for x, y in zip(xs, ys) if x != zero and y != zero]
        if not terms:
            return zero
        den = math.lcm(*(d for _, d in terms))
        return self._reduced([sum(col) for col in zip(*[
            [x * (den // d) for x in nums] if d != den else nums for nums, d in terms])], den)

    def mul_theta_power(self, a, e):
        # theta is a unit of Z[theta], so the content, and with it the
        # normal form's denominator, is unchanged
        e %= self.r
        if not e:
            return a
        nums, den = a
        full = nums + (0,)  # coefficients of theta^0 .. theta^(r-1)
        rot = full[-e:] + full[:-e]
        high = rot[-1]
        if high:
            return (tuple(x - high for x in rot[:-1]), den)
        return (rot[:-1], den)

    # mul's rotation under its own name: pi_map is held to mul_theta_power
    # calls alone, and a mul must not count as one
    _rotate = mul_theta_power

    def _conjugate(self, a, j):
        # the field automorphism theta -> theta^j
        nums, den = a
        acc = [0] * self.r
        for i, c in enumerate(nums):
            if c:
                acc[(i * j) % self.r] += c
        high = acc[self.r - 1]
        return (tuple(acc[i] - high for i in range(self._d)), den)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        # product of the nontrivial conjugates; a * prod is the rational norm
        prod = self.one
        for j in range(2, self.r):
            prod = self.mul(prod, self._conjugate(a, j))
        norm = self.mul(a, prod)
        nnums, nden = norm
        if any(nnums[1:]):
            raise AssertionError("norm is not rational")
        pn, pd = prod
        return self._norm([x * nden for x in pn], pd * nnums[0])

    def from_int(self, n):
        return ((n,) + (0,) * (self._d - 1), 1)

    def serialize_elem(self, a):
        nums, den = a
        return [f"{Fraction(x, den).numerator}/{Fraction(x, den).denominator}" for x in nums]

    def parse_elem(self, s):
        fracs = [Fraction(part) for part in s]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        if len(nums) != self._d:
            raise ValueError(f"expected {self._d} coefficients")
        return self._norm(nums, den)

    def spec_json(self):
        return {"kind": "cyclotomic", "r": self.r}

    def describe(self):
        return f"Q(theta_{self.r})"


def lane_division(p, width):
    """(budget, m, s, mask) for reducing lanes of width bytes mod p all at
    once: for every lane value x below budget = 2^N, N = (8 * width -
    bits(p)) // 2 - 1, the lane of ((X * m) >> s) & M is x // p, where X is
    a packed row and M repeats mask in each lane.  m = ceil(2^s / p) with
    s = N + bits(p) makes x * m / 2^s fall short of x // p + 1 (x * (m * p
    - 2^s) < 2^N * p <= 2^s), so the quotient is exact (Granlund and
    Montgomery 1994, "Division by invariant integers using
    multiplication").  x * m < 2^(2N + 1) < 2^(8 * width) keeps each lane's
    product in its lane; the shift moves the low s bits of the next lane's
    product into bits 8 * width - s and up, and mask keeps the 8 * width -
    s bits below them, where the quotient, below 2^(N + 1 - bits(p)),
    lies."""
    bits = p.bit_length()
    lane_bits = 8 * width
    budget_bits = (lane_bits - bits) // 2 - 1
    s = budget_bits + bits
    return 1 << budget_bits, -(-(1 << s) // p), s, (1 << (lane_bits - s)) - 1


def _lane_plan(r, p, k):
    """(width, lane_division(p, width)) for PackedRows over GF(p^k): width
    the least multiple of 8 bytes whose signed lanes hold r * k * p^2."""
    width = 8
    while r * k * p * p >> (8 * width - 1):
        width += 8
    return width, lane_division(p, width)


def _plane_kernels(ctx, scale):
    """What PackedRows multiplies planes by for the tables of one scale,
    whose values are v_e = scale * theta^e with matrices R_e =
    ctx.mul_matrix(v_e): monomial[c][d][e] = R_e[c][d], the coefficient of
    plane d in plane c of v_e times a row; fourier, for output plane c of
    fibre row i, in the order (c, i), the coefficients R_(i*x mod r)[c][d]
    of plane d of fibre row x, in the order (d, x); and after each the
    largest row sum, the most it grows a lane by.  Each field context
    keeps its own cache of these, ctx._kernels, for up to 256 scales."""
    r = ctx.r
    k = ctx.k
    mats = [ctx.mul_matrix(ctx.mul_theta_power(scale, e)) for e in range(r)]
    fourier = [[mats[i * x % r][c][d] for d in range(k) for x in range(r)]
               for c in range(k) for i in range(r)]
    return ([[[m[c][d] for m in mats] for d in range(k)] for c in range(k)],
            max(sum(row) for m in mats for row in m), fourier, max(map(sum, fourier)))


@functools.lru_cache(maxsize=256)
def _fibres(n, stride, r, k):
    """For each fibre of r rows stride apart in n rows of k planes, held
    plane-major (plane c of row j at c * n + j): the indices of its planes
    in the order (c, i), plane c of fibre row i, and their itemgetter."""
    block = stride * r
    places = [[c * n + base + off + i * stride for c in range(k) for i in range(r)]
              for base in range(0, n, block) for off in range(stride)]
    return [(operator.itemgetter(*p), p) for p in places]


class PackedRows:
    """The n rows of a matrix over GF(p^k) (GF(p) is k = 1) as k * n ints,
    plane-major: int c * n + j packs the x^c coefficients of row j's
    entries, one signed lane of width bytes per entry (ctx._lane_plan),
    every lane in [0, bound].  monomial, fourier and mul_rows replace the
    rows by op * rows for one operator, a value acting on a row's planes by
    its multiplication matrix (_plane_kernels); each first reduces the lanes
    mod p (reduce) if the operator could carry one to 2^(8 * width - 1)."""

    __slots__ = ("ctx", "lanes", "rows", "bound")

    def __init__(self, ctx, rows, lanes, bound):
        self.ctx = ctx
        self.rows = rows
        self.lanes = lanes
        self.bound = bound

    @classmethod
    def load(cls, ctx, rows):
        """rows of field values, packed."""
        return cls(ctx, _pack_signed(_planes_of(ctx, rows), len(rows[0]), ctx._lane_plan[0]),
                   len(rows[0]), ctx.p - 1)

    @classmethod
    def identity(cls, ctx, n):
        """The n x n identity: plane 0 of row j is the unit vector e_j, the
        int 2^(8 * width * j), and the other planes are 0."""
        shift = 8 * ctx._lane_plan[0]
        return cls(ctx, [1 << shift * j for j in range(n)] + [0] * (n * ctx.k - n), n, 1)

    @classmethod
    def closure_steps(cls, ctx, n, ops):
        """FieldContext.closure_steps over GF(p^k): a state is one int
        holding the whole matrix, plane-major, lane (c * n + j) * n + i the
        x^c coefficient of entry (j, i), every lane in [0, p), so equal ints
        are equal matrices.  Each op is compiled once (_StepRecorder), its
        mul_packed run on a recorder, and its step is the recorded stages.
        The lanes are the narrowest of 2, 4, 8, 16, ... bytes whose
        lane_division budget is above the largest lane a stage can make, so
        every step reduces in one multiply and shift."""
        recorders = [_StepRecorder(ctx, n) for _ in ops]
        for op, recorder in zip(ops, recorders):
            op.mul_packed(recorder)
        top = (ctx.p - 1) * max([1] + [recorder.growth for recorder in recorders])
        width = 2
        while (8 * width - ctx.p.bit_length()) // 2 - 1 < top.bit_length():  # 2^N <= top
            width *= 2
        start = sum(1 << 8 * width * (n + 1) * j for j in range(n))
        return start, [recorder.compile(width) for recorder in recorders]

    def reduce(self):
        """Bring every lane into [0, p), so bound becomes p - 1.  Below the
        budget of lane_division each int takes one multiply, shift, mask,
        multiply and subtract; above it the lanes are unpacked, reduced one
        by one and packed again."""
        p = self.ctx.p
        if self.bound < p:
            return
        width, (budget, m, s, mask) = self.ctx._lane_plan
        if self.bound < budget:
            mask = _every_lane(mask, self.lanes, width)
            self.rows = [x - ((x * m >> s) & mask) * p for x in self.rows]
        else:
            lanes = _unpack_signed(self.rows, self.lanes, width)
            self.rows = _pack_signed(map(operator.mod, lanes, itertools.repeat(p)),
                                     self.lanes, width)
        self.bound = p - 1

    def _grow(self, growth):
        """Make room for lanes multiplied by at most growth."""
        if self.bound * growth >> (8 * self.ctx._lane_plan[0] - 1):
            self.reduce()
        self.bound *= growth

    def monomial(self, perm, expo, table):
        """Row j, times table[expo[j]], becomes row perm[j]: plane c of the
        new row sums R[c][d] * plane d over d, R table[expo[j]]'s matrix."""
        kernel, growth, _, _ = self.ctx._kernels(table[0])
        self._grow(growth)
        rows = self.rows
        n = len(perm)
        out = []
        for coefs in kernel:
            acc = [0] * n
            for p, e, x in zip(perm, expo, rows):   # plane 0 sets each entry
                acc[p] = coefs[0][e] * x
            for by_expo, start in zip(coefs[1:], range(n, len(rows), n)):
                for p, e, x in zip(perm, expo, rows[start:start + n]):
                    acc[p] += by_expo[e] * x
            out += acc
        self.rows = out

    def fourier(self, stride, table):
        """On each fibre of r rows stride apart, output row i is
        sum_x table[i][x] * row x, plane by plane."""
        _, _, kernel, growth = self.ctx._kernels(table[0][0])
        self._grow(growth)
        rows = self.rows
        mul = operator.mul
        out = [None] * len(rows)
        for pick, places in _fibres(len(rows) // self.ctx.k, stride, len(table), self.ctx.k):
            fibre = pick(rows)
            for place, coefs in zip(places, kernel):
                out[place] = sum(map(mul, coefs, fibre))
        self.rows = out

    def mul_rows(self, mul_rows):
        """Any other operator: its mul_rows on the unpacked rows."""
        self.rows = self.load(self.ctx, mul_rows(self.unpacked())).rows
        self.bound = self.ctx.p - 1

    def unpacked(self):
        """The rows in ctx.row form, read off the lanes mod p: bytes over
        GF(p) with p < 256, tuples of field values otherwise."""
        return _rows_of(self.ctx, _unpack_signed(self.rows, self.lanes, self.ctx._lane_plan[0]),
                        self.lanes)


def _planes_of(ctx, rows):
    """The coordinates of rows of values over GF(p^k), plane-major: plane 0
    of every row, then plane 1, ..., each row's entries in turn."""
    chain = itertools.chain.from_iterable
    return chain(chain(zip(*map(ctx.coordinates, rows))))


def _rows_of(ctx, lanes, size):
    """Rows of size values read mod p off lanes laid out as _planes_of lays
    them out, each a slice of one ctx.row of all the values."""
    k = ctx.k
    lanes = list(map(operator.mod, lanes, itertools.repeat(ctx.p)))
    plane = len(lanes) // k
    values = ctx.row(ctx.from_coordinates([lanes[c * plane:c * plane + plane] for c in range(k)]))
    return tuple(values[i:i + size] for i in range(0, len(values), size))


class _StepRecorder:
    """One operator's closure step over GF(p^k), compiled from its
    mul_packed: the operator calls monomial, fourier or mul_rows as it would
    on PackedRows, and each call records stages, each a function of the
    lane width that builds a step on the state int (PackedRows.
    closure_steps).  growth is the most any stage multiplies a lane by."""

    __slots__ = ("ctx", "n", "stages", "growth")

    def __init__(self, ctx, n):
        self.ctx, self.n = ctx, n
        self.stages = []
        self.growth = 1

    def monomial(self, perm, expo, table):
        """Row j, times table[expo[j]], becomes row perm[j]."""
        self._record([self._moves(zip(range(len(perm)), perm, expo), table[0])])

    def fourier(self, stride, table):
        """On each fibre of r rows stride apart, row x times table[i][x] =
        scale * theta^(i*x) is added to output row i: in one stage, or in
        three when they take fewer masks, by Bluestein's factorisation
        theta^(i*x) = theta^(h*i^2) * theta^(-h*(i-x)^2) * theta^(h*x^2)
        with h = (r + 1) / 2, the inverse of 2 mod r: a diagonal stage, a
        circulant one on each fibre and a diagonal one times the scale."""
        r, n, one, scale = len(table), self.n, self.ctx.one, table[0][0]
        fibres = [(off + x * stride, off + i * stride, i, x)
                  for base in range(0, n, stride * r) for off in range(base, base + stride)
                  for i in range(r) for x in range(r)]
        h = (r + 1) // 2
        diagonal = [(j, j, h * (j // stride % r) ** 2) for j in range(n)]
        direct = [self._moves([(s, t, i * x) for s, t, i, x in fibres], scale)]
        factored = [self._moves(diagonal, one),
                    self._moves([(s, t, -h * (i - x) ** 2) for s, t, i, x in fibres], one),
                    self._moves(diagonal, scale)]
        self._record(min(direct, factored, key=_mask_count))

    def mul_rows(self, mul_rows):
        """Any other operator: the state unpacked, its mul_rows on the rows,
        packed again."""
        self.stages.append(functools.partial(_dense_step, self.ctx, self.n, mul_rows))

    def _moves(self, entries, scale):
        """(moves, growth) for row s times scale * theta^e added to row t
        for each (s, t, e): plane d of s, block d * n + s of the state,
        times R_e[c][d] (_plane_kernels) added to plane c of t, block c * n
        + t.  moves keeps them by coefficient, then by how many blocks they
        shift, with the source blocks of each; growth is the largest sum of
        coefficients into one block."""
        kernel, r = self.ctx._kernels(scale)[0], self.ctx.r
        n, k = self.n, self.ctx.k
        moves = {}
        growth = [0] * (k * n)
        for s, t, e in entries:
            for c, d in itertools.product(range(k), repeat=2):
                coef = kernel[c][d][e % r]
                if coef:
                    source, target = d * n + s, c * n + t
                    moves.setdefault(coef, {}).setdefault(target - source, []).append(source)
                    growth[target] += coef
        return moves, max(growth)

    def _record(self, stages):
        """Append a move step for each (moves, growth) stage, reducing only
        where a lane can reach p."""
        for moves, growth in stages:
            self.growth = max(self.growth, growth)
            self.stages.append(functools.partial(_move_step, self.ctx, self.n, moves, growth > 1))

    def compile(self, width):
        """The step: the stages built for lanes of width bytes, in order."""
        steps = [stage(width) for stage in self.stages]
        if len(steps) == 1:
            return steps[0]

        def run(state):
            for step in steps:
                state = step(state)
            return state
        return run


def _mask_count(stages):
    """The masks a step of the (moves, growth) stages takes: one per
    coefficient and shift."""
    return sum(len(by_shift) for moves, _ in stages for by_shift in moves.values())


def _move_step(ctx, n, moves, reduce, width):
    """The step sum_coef sum_shift ((coef * S) & mask) shifted on a state
    S, mask covering the shift's source blocks, then, when a lane can reach
    p, lane_division's reduction of the whole int.  S is first lifted by
    the largest upward shift, so every move is a shift down."""
    size = 8 * width * n
    block = (1 << size) - 1
    lift = size * max(itertools.chain([0], *moves.values()))
    coefs = list(moves)
    picks, masks, shifts = [], [], []
    for i, by_shift in enumerate(moves.values()):
        for shift, sources in by_shift.items():
            picks.append(i)
            masks.append(sum(block << size * b for b in sources) << lift)
            shifts.append(lift - size * shift)
    and_, rshift, p = operator.and_, operator.rshift, ctx.p
    _, m, s, mask = lane_division(p, width)
    mask = _every_lane(mask, ctx.k * n * n, width)

    def step(state):
        scaled = list(map((state << lift).__mul__, coefs))
        total = sum(map(rshift, map(and_, map(scaled.__getitem__, picks), masks), shifts))
        return total - ((total * m >> s) & mask) * p if reduce else total
    return step


def _dense_step(ctx, n, mul_rows, width):
    """The step that unpacks a state into rows of values, multiplies them
    by mul_rows and packs the product again."""
    lanes = ctx.k * n * n

    def step(state):
        rows = _rows_of(ctx, _unpack_signed((state,), lanes, width), n)
        return _pack_signed(_planes_of(ctx, mul_rows(rows)), lanes, width)[0]
    return step


class PrimeFieldContext(FieldContext):
    """GF(p) with r | p - 1; elements are residues in [0, p), each its own
    single coordinate over GF(p)."""

    kind = "prime"
    k = 1
    row_class = PackedRows

    def __init__(self, r, p):
        if not is_prime(r) or r == 2:
            raise InvalidFieldSpec(f"r = {r} must be an odd prime")
        check_field_order(p, 1)
        if not is_prime(p):
            raise InvalidFieldSpec(f"p = {p} is not prime")
        if (p - 1) % r != 0:
            raise InvalidFieldSpec(f"r = {r} does not divide p - 1 = {p - 1}")
        self.r = r
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1
        self.row = bytes if p < 256 else tuple
        self._set_theta(pow(smallest_primitive_root(p), (p - 1) // r, p))
        self._lane_plan = _lane_plan(r, p, 1)
        self._kernels = functools.lru_cache(maxsize=256)(functools.partial(_plane_kernels, self))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def mul_matrix(self, a):
        """Multiplication by a as a 1 x 1 matrix over GF(p)."""
        return ((a,),)

    @staticmethod
    def coordinates(values):
        """The k = 1 sequences of coordinates of values: values itself."""
        return (values,)

    @staticmethod
    def from_coordinates(planes):
        return planes[0]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.p

    def mul_theta_power(self, a, e):
        return a * self.theta_pow[e % self.r] % self.p

    def from_int(self, n):
        return n % self.p

    def serialize_elem(self, a):
        return str(a)

    def parse_elem(self, s):
        return int(s) % self.p

    def spec_json(self):
        return {"kind": "prime", "r": self.r, "p": self.p}

    def describe(self):
        return f"GF({self.p})"


class ExtensionFieldContext(FieldContext):
    """GF(p^k) defined by a monic irreducible modulus; elements are
    coefficient tuples of length k, constant term first, their coordinates
    in the modulus basis 1, x, ..., x^(k-1).  g, the first primitive element
    in encoding order, gives theta = g^((q-1)/r).  With q at most
    MAX_TABLE_ORDER, _exp[i] = g^i (listed twice, so two logs add without
    reduction) and _log is its inverse; above the bound _log is None."""

    kind = "extension"
    row_class = PackedRows

    def __init__(self, r, p, k, modulus=None):
        if not is_prime(r) or r == 2:
            raise InvalidFieldSpec(f"r = {r} must be an odd prime")
        if k < 1:
            raise InvalidFieldSpec(f"extension degree k = {k} must be >= 1")
        check_field_order(p, k)
        if not is_prime(p):
            raise InvalidFieldSpec(f"p = {p} is not prime")
        if p == r:
            raise InvalidFieldSpec("characteristic p must differ from r")
        q = p ** k
        if (q - 1) % r != 0:
            raise InvalidFieldSpec(f"r = {r} does not divide p^k - 1 = {q - 1}")
        if modulus is None:
            modulus = find_irreducible_polynomial(p, k)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise InvalidFieldSpec("modulus must be monic of degree k")
        if not is_irreducible(modulus, p):
            raise InvalidFieldSpec("modulus polynomial is reducible")
        self.r = r
        self.p = p
        self.k = k
        self.q = q
        self.char = p
        self.modulus = modulus
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self._log = None
        facs = prime_factors(q - 1)
        g = next(g for g in map(self._encode, range(2, q))
                 if all(self.pow(g, (q - 1) // f) != self.one for f in facs))
        self._set_theta(self.pow(g, (q - 1) // r))
        self._lane_plan = _lane_plan(r, p, k)
        self._kernels = functools.lru_cache(maxsize=256)(functools.partial(_plane_kernels, self))
        if q > MAX_TABLE_ORDER:
            return
        # a * g is (low half of a) * g + (high half of a) * g, both looked up
        h = k // 2
        lows = {c: self.mul(c + (0,) * (k - h), g)
                for c in itertools.product(range(p), repeat=h)}
        highs = {c: self.mul((0,) * h + c, g)
                 for c in itertools.product(range(p), repeat=k - h)}
        exp = [self.one]
        for _ in range(q - 2):
            a = exp[-1]
            exp.append(tuple((u + v) % p for u, v in zip(lows[a[:h]], highs[a[h:]])))
        self._exp = exp + exp
        self._theta_log = (q - 1) // r
        self._log = {a: i for i, a in enumerate(exp)}

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        log, zero = self._log, self.zero
        if log is not None:
            return zero if a == zero or b == zero else self._exp[log[a] + log[b]]
        return _poly_mulmod(a, b, self.modulus, self.p)

    def dot(self, xs, ys):
        """sum(x * y), the nonzero products added one by one."""
        zero = self.zero
        terms = [self.mul(a, b) for a, b in zip(xs, ys) if a != zero and b != zero]
        return functools.reduce(self.add, terms, zero)

    def mul_matrix(self, a):
        """The k x k matrix over GF(p) of multiplication by a: column d
        holds the coordinates of a * x^d."""
        return tuple(zip(*(self.mul(a, self._encode(self.p ** d)) for d in range(self.k))))

    @staticmethod
    def coordinates(values):
        """The k sequences of coordinates of values, one per power x^c; on
        k such sequences, the values again."""
        return zip(*values)

    from_coordinates = coordinates

    def mul_theta_power(self, a, e):
        if self._log is None:
            return super().mul_theta_power(a, e)
        e %= self.r
        if not e or a == self.zero:
            return a
        return self._exp[self._log[a] + e * self._theta_log]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        if self._log is None or a == self.zero:
            return super().pow(a, e)
        return self._exp[self._log[a] * e % (self.q - 1)]

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def _encode(self, n):
        digits = []
        for _ in range(self.k):
            digits.append(n % self.p)
            n //= self.p
        return tuple(digits)

    def serialize_elem(self, a):
        return [str(c) for c in a]

    def parse_elem(self, s):
        coeffs = [int(c) % self.p for c in s]
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients")
        return tuple(coeffs)

    def spec_json(self):
        return {"kind": "extension", "r": self.r, "p": self.p, "k": self.k,
                "modulus": list(self.modulus)}

    def describe(self):
        return f"GF({self.p}^{self.k})"


# ---------------------------------------------------------------------------
# construction


def make_field(spec):
    """Build a FieldContext from a FieldSpec, resolving auto variants
    deterministically (smallest valid p, respectively k = ord_2(r))."""
    r = spec.r
    if not is_prime(r) or r == 2:
        raise InvalidFieldSpec(f"r = {r} must be an odd prime")
    if spec.kind == "cyclotomic":
        return CyclotomicContext(r)
    if spec.kind == "prime":
        return PrimeFieldContext(r, spec.p)
    if spec.kind == "extension":
        return ExtensionFieldContext(r, spec.p, spec.k, spec.modulus)
    if spec.kind == "auto-prime":
        p = r + 1
        while not is_prime(p):
            p += r
        return PrimeFieldContext(r, p)
    if spec.kind == "auto-char2":
        k = next(k for k in itertools.count(1) if pow(2, k, r) == 1)
        return ExtensionFieldContext(r, 2, k)
    raise InvalidFieldSpec(f"unknown field kind {spec.kind!r}")


def parse_field_spec(text, r):
    """CLI field grammar: cyclotomic | auto-prime | gf:p | gf:p^k | gf2-auto."""
    if text == "cyclotomic":
        return FieldSpec("cyclotomic", r)
    if text == "auto-prime":
        return FieldSpec("auto-prime", r)
    if text == "gf2-auto":
        return FieldSpec("auto-char2", r)
    if text.startswith("gf:"):
        base, caret, exponent = text[3:].partition("^")
        try:
            q = int(base)
            k = int(exponent) if caret else None
        except ValueError:
            raise InvalidFieldSpec(f"unrecognised field spec {text!r}") from None
        check_field_order(q, 1 if k is None else k)
        p = q
        if k is None:
            factors = prime_factors(q)
            if len(factors) != 1:
                raise InvalidFieldSpec(f"{q} is not a prime power")
            p = factors[0]
            k = next(k for k in itertools.count(1) if p ** k == q)
        if k == 1:
            return FieldSpec("prime", r, p=p)
        return FieldSpec("extension", r, p=p, k=k)
    raise InvalidFieldSpec(f"unrecognised field spec {text!r}")
