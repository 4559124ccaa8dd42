"""Exact Laurent polynomial arithmetic in q, Gaussian binomials, and the
multiplicity tables of the Decomposition Theorem for the standard
resolutions of determinantal varieties.

The central computation: pushing a simple module of the rank-p stratum
down a projective resolution produces, in each cohomological degree j, a
semisimple module. Encoding the degree in a formal variable q turns the
bookkeeping into Laurent polynomial identities: stalks of IC sheaves are
Gaussian binomials at q^2 (up to a shift), and the multiplicity
polynomials f_i(q) are pinned down by a triangular system solvable by
exact back-substitution. The closed form is a shifted q-binomial, so the
solver doubles as an identity checker. The solver works in t = q^2 on
the shifted unknowns g_i = f_i * q^((p-i)(m+n-p-i)), where the system has
no shifts, and sums each row's products as one packed big integer. Each
g_i is kept without its leading zeros, as its lowest exponent and its
coefficients from there, and each product is shifted into place in the
sum.

`pushforward_DpY` multiplies that table by a q-binomial prefactor. On
the closed route it builds the products in t along their diagonal, entry
i-1 from entry i by one multiplication by (1 - t^s) and one checked
division by (1 - t^j), with no polynomial products. On the solver route
it multiplies each solved g_i, still in t, by the prefactor, packed once
per slot width.

A `LaurentPoly` is dense: the exponent of its lowest term and the tuple
of coefficients from there to its highest term, with no zeros at either
end. Its exponents and coefficients are ints; anything else, such as a
float or a string, is refused with a TypeError. Long operands are
multiplied by Kronecker substitution: each coefficient list is packed
into one Python integer, in slots wide enough for any coefficient of the
product, so one C-level big-integer product does the whole convolution;
signed operands are split into their positive and negative parts first.
Short operands use the schoolbook convolution. Every packed product, the
solver's rows included, goes through `_packed_sum`, the one place that
picks a slot width: a slot of a*b sums terms of at most
|a_j| * |b_(s-j)|, so it holds at most min(max|a| * sum|b|,
sum|a| * max|b|), and a sum of products gets the sum of those bounds. Its
operands are `_Packed`: coefficients with their lowest exponent, largest
and summed absolute values, and packings cached per slot width.

`LaurentPoly.to_json` and `DecompositionTable.to_json` write the JSON
text that json.dumps would write for the map from each exponent, as a
string, to its nonzero coefficient, straight from the dense
coefficients: cached '"<e>": %d' key templates of the nonzero slots are
joined and filled by one `%` with the nonzero coefficients. The
templates are built in blocks of `JSON_KEY_BLOCK` exponents, on demand,
so any exponent range is served.

`q_binomial(a, b)` (after replacing b by min(b, a-b)) lies on the
diagonal qbin(c+j, j) with c = a-b. Each diagonal is built once, in
order, multiplying by (1 - q^(c+j)) and dividing by (1 - q^j) for each
j; each division checks that its remainder is zero. A cold request
continues from the longest prefix of its diagonal built so far, so a
lone request does min(b, a-b) steps and a table's requests share theirs.
A division by 1 - q^j is a prefix sum along each residue class mod j
when there are fewer classes than blocks of j, else blockwise additions.

`qbinomial_identity_verdicts(a, b, cmax)` checks the q-Vandermonde
convolution for every c <= cmax of one (a, b), comparing both sides as
packed integers in one slot width; `verify_qbinomial_identity` is its
verdict at one c.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import lru_cache
from itertools import accumulate, chain, compress, islice
from math import comb

from .matrixspace import MatrixSpace, Stratum, dim_stratum
from .reporting import VerificationReport

# Below this product of operand lengths the schoolbook convolution beats
# packing into big integers.
SCHOOLBOOK_BELOW = 64


class LaurentPoly:
    """Integer Laurent polynomial in one variable q. Immutable, exact.

    `_c` holds the coefficients of q^_lo, q^(_lo+1), ..., q^max_exp; its
    first and last entries are nonzero. The zero polynomial has
    `_c == ()` and `_lo == 0`."""

    __slots__ = ("_lo", "_c")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, v in items:
                if not (isinstance(e, int) and isinstance(v, int)):
                    raise TypeError(
                        f"exponents and coefficients must be int, got {v!r} at q^{e!r}"
                    )
                if v:
                    c[int(e)] = int(v)
        self._lo, self._c = 0, ()
        if c:
            lo = min(c)
            dense = [0] * (max(c) - lo + 1)
            for e, v in c.items():
                dense[e - lo] = v
            self._lo, self._c = lo, tuple(dense)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._c

    def items(self):
        """(exponent, coefficient) of each nonzero term, by increasing exponent."""
        return [(e, v) for e, v in enumerate(self._c, self._lo) if v]

    def coefficient(self, exp: int) -> int:
        i = exp - self._lo
        return self._c[i] if 0 <= i < len(self._c) else 0

    def coefficients(self):
        return [v for v in self._c if v]

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no support")
        return self._lo

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no support")
        return self._lo + len(self._c) - 1

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __hash__(self):
        return hash((self._lo, self._c))

    def __neg__(self):
        return _dense(self._lo, tuple(-v for v in self._c))

    def _combine(self, other, op):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return other if op is operator.add else -other
        lo = min(self._lo, other._lo)
        out = [0] * (max(self._lo + len(self._c), other._lo + len(other._c)) - lo)
        i = self._lo - lo
        out[i : i + len(self._c)] = self._c
        j = other._lo - lo
        out[j : j + len(other._c)] = map(op, out[j : j + len(other._c)], other._c)
        return _trimmed(lo, out)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            return _dense(self._lo, tuple(v * other for v in self._c))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not (self._c and other._c):
            return LaurentPoly()
        # The end coefficients multiply to nonzero ends: nothing to trim.
        return _dense(self._lo + other._lo, tuple(_convolve(self._c, other._c)))

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative powers are not supported")
        out = LaurentPoly.one()
        base = self
        while power:
            if power & 1:
                out = out * base
            base = base * base
            power >>= 1
        return out

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by q^d."""
        return _dense(self._lo + d, self._c)

    def stretch(self, factor: int) -> "LaurentPoly":
        """Substitute q -> q^factor."""
        if not self._c:
            return self
        if factor == 0:
            return LaurentPoly({0: self.at_one()})
        step = abs(factor)
        out = [0] * ((len(self._c) - 1) * step + 1)
        out[::step] = self._c if factor > 0 else self._c[::-1]
        return _dense(min(factor * self._lo, factor * self.max_exp), tuple(out))

    def at_one(self) -> int:
        return sum(self._c)

    def to_json(self) -> str:
        """The text `json.dumps` writes for the map from each exponent, as
        a string, to its nonzero coefficient, by increasing exponent."""
        c = self._c
        if not c:
            return "{}"
        keys = _json_keys(self._lo, len(c))
        return "{" + ", ".join(compress(keys, c)) % tuple(compress(c, c)) + "}"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, v in self.items():
            mag = abs(v)
            if e == 0:
                term = str(mag)
            else:
                base = "q" if e == 1 else f"q^{e}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({dict(self.items())!r})"


# _JSON_KEYS[b][i] is the key template '"<e>": %d' of exponent
# e = b * JSON_KEY_BLOCK + i; blocks are built when first asked for.
JSON_KEY_BLOCK = 512
_JSON_KEYS: dict[int, list[str]] = {}


def _json_keys(lo: int, count: int):
    """The key templates of the exponents lo, ..., lo + count - 1, in order."""
    first, last = lo // JSON_KEY_BLOCK, (lo + count - 1) // JSON_KEY_BLOCK
    blocks = []
    for b in range(first, last + 1):
        block = _JSON_KEYS.get(b)
        if block is None:
            base = b * JSON_KEY_BLOCK
            block = _JSON_KEYS[b] = [f'"{e}": %d' for e in range(base, base + JSON_KEY_BLOCK)]
        blocks.append(block)
    start = lo - first * JSON_KEY_BLOCK
    return islice(chain.from_iterable(blocks), start, start + count)


def _dense(lo: int, coeffs: tuple) -> LaurentPoly:
    """A LaurentPoly from coefficients already free of end zeros."""
    out = object.__new__(LaurentPoly)
    out._lo, out._c = (lo, coeffs) if coeffs else (0, ())
    return out


def _trimmed(lo: int, coeffs: list) -> LaurentPoly:
    """A LaurentPoly from coefficients of q^lo, q^(lo+1), ... that may
    start or end with zeros."""
    start, end = 0, len(coeffs)
    while start < end and not coeffs[start]:
        start += 1
    while end > start and not coeffs[end - 1]:
        end -= 1
    return _dense(lo + start, tuple(coeffs[start:end]))


# Array typecodes by item size, for packing slots of 1, 2, 4 or 8 bytes at C speed.
_TYPECODES = {array(t).itemsize: t for t in "QLIHB"}


def _slot_width(bound: int) -> int:
    """Bytes per slot for values up to bound: a power of two up to 8, else exact."""
    width = (bound.bit_length() + 7) // 8
    for size in (1, 2, 4, 8):
        if width <= size:
            return size
    return width


def _pack(coeffs, width: int) -> int:
    """Nonnegative coefficients as the base-256^width digits of one integer."""
    if width in _TYPECODES:
        return int.from_bytes(array(_TYPECODES[width], coeffs).tobytes(), sys.byteorder)
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def _unpack(value: int, width: int, count: int) -> list:
    """The first `count` base-256^width digits of a nonnegative integer."""
    if width in _TYPECODES:
        return array(_TYPECODES[width], value.to_bytes(width * count, sys.byteorder)).tolist()
    raw = value.to_bytes(width * count, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _convolve(a, b) -> list:
    """Coefficients of the product of two nonempty coefficient sequences."""
    if len(a) * len(b) < SCHOOLBOOK_BELOW:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return out
    # Kronecker substitution.
    return _packed_sum([(_Packed(0, a), _Packed(0, b), 0)], len(a) + len(b) - 1)


class _Packed:
    """The coefficients of a polynomial from its lowest exponent `lo`,
    with their largest absolute value `peak`, their absolute sum `norm`,
    the value at q = 1 (`total`, None if a coefficient is negative), and
    their packing in slots of a given width, cached per width."""

    __slots__ = ("lo", "coeffs", "peak", "norm", "total", "_by_width")

    def __init__(self, lo: int, coeffs):
        magnitudes = list(map(abs, coeffs))
        self.lo, self.coeffs = lo, coeffs
        self.peak, self.norm = max(magnitudes, default=0), sum(magnitudes)
        self.total = self.norm if min(coeffs, default=0) >= 0 else None
        self._by_width = {}

    def packed(self, width: int) -> tuple[int, int]:
        """The packed positive parts and the packed magnitudes of the
        negative parts, in slots of `width` bytes."""
        value = self._by_width.get(width)
        if value is None:
            c = self.coeffs
            if self.total is None:
                value = _pack([max(x, 0) for x in c], width), _pack([max(-x, 0) for x in c], width)
            else:
                value = _pack(c, width), 0
            self._by_width[width] = value
        return value


def _packed_sum(products, count: int) -> list:
    """The first `count` coefficients of the sum of the products
    a * b * q^offset, given as triples of two `_Packed`, each read from
    its first coefficient, and the offset in slots: each product is formed
    from its operands alone and shifted into place. This is the one place
    that picks a slot width. A slot of a*b sums terms of at most
    |a_j| * |b_(s-j)|, so it holds at most min(max|a| * sum|b|,
    sum|a| * max|b|), in the products of the positive parts and of the
    negative parts alike; the slots hold the sum of that bound over the
    products, so none carries into the next."""
    width = _slot_width(sum(min(a.peak * b.norm, a.norm * b.peak) for a, b, _ in products))
    positive = negative = 0
    bits = 8 * width
    for a, b, offset in products:
        (a_pos, a_neg), (b_pos, b_neg) = a.packed(width), b.packed(width)
        positive += (a_pos * b_pos + a_neg * b_neg) << (bits * offset)
        if a_neg or b_neg:
            negative += (a_pos * b_neg + a_neg * b_pos) << (bits * offset)
    out = _unpack(positive, width, count)
    if negative:
        out = list(map(operator.sub, out, _unpack(negative, width, count)))
    return out


def _times_one_minus_q(coeffs: list, s: int) -> list:
    """Coefficients of f(q) * (1 - q^s), from those of a polynomial f."""
    out = list(coeffs) + [0] * s
    out[s:] = map(operator.sub, out[s:], coeffs)
    return out


def _divide_one_minus_q(coeffs: list, j: int) -> list:
    """Coefficients of f(q) / (1 - q^j), from those of a polynomial f;
    raises ArithmeticError unless the division is exact. The quotient h
    satisfies h[i] = f[i] + h[i-j]: a prefix sum along each residue class
    mod j when there are fewer classes than blocks (j * j < len(f)), else
    filled in blocks of j."""
    h = list(coeffs)
    if j * j < len(h):
        for r in range(j):
            h[r::j] = accumulate(h[r::j])
    else:
        for i in range(j, len(h), j):
            h[i : i + j] = map(operator.add, h[i : i + j], h[i - j : i])
    if len(h) <= j or any(h[len(h) - j :]):
        raise ArithmeticError(f"inexact division by 1 - q^{j}")
    return h[: len(h) - j]


# _DIAGONALS[c][j] holds the coefficients of qbin(c + j, j), built in order.
_DIAGONALS: dict[int, list[tuple]] = {}


@lru_cache(maxsize=None)
def q_binomial(a: int, b: int) -> LaurentPoly:
    """Gaussian binomial coefficient as an exact polynomial in q:

        (1-q^a)(1-q^(a-1))...(1-q^(a-b+1)) / ((1-q^b)...(1-q)),

    zero when a < b. The result has degree b*(a-b), nonnegative
    palindromic coefficients, and value comb(a, b) at q = 1. After b is
    replaced by min(b, a-b), it lies on the diagonal qbin(c+j, j) with
    c = a-b, and is built from the longest prefix of that diagonal built
    so far, one factor pair at a time: qbin(c+j, j) = qbin(c+j-1, j-1) *
    (1-q^(c+j)) / (1-q^j), each division checked to be exact.
    """
    if b < 0:
        raise ValueError("lower index must be nonnegative")
    if a < b:
        return LaurentPoly()
    b = min(b, a - b)
    c = a - b
    diagonal = _DIAGONALS.setdefault(c, [(1,)])
    for j in range(len(diagonal), b + 1):
        step = _divide_one_minus_q(_times_one_minus_q(diagonal[-1], c + j), j)
        diagonal.append(tuple(step))
    return _dense(0, diagonal[b])


def grassmannian_poincare(r: int, N: int) -> LaurentPoly:
    """Poincare polynomial of the Grassmannian of r-dimensional quotients
    of an N-dimensional space: the q-binomial comb(N, r) at q^2. Zero when
    r > N, matching the q-binomial convention."""
    if r < 0:
        raise ValueError("quotient rank must be nonnegative")
    return q_binomial(N, r).stretch(2)


def stalk_poly(i: int, k: int, space: MatrixSpace) -> LaurentPoly:
    """Stalk cohomology of the IC complex of the rank <= i locus at a
    point of rank k, encoded as q^(-d_i) * qbin(n-k, i-k) at q^2. Defined
    for 0 <= k <= i (the point must lie in the closure)."""
    if not 0 <= i <= space.n:
        raise ValueError(f"stratum index i={i} outside 0..{space.n}")
    if not 0 <= k <= i:
        raise ValueError(f"stalk formula needs 0 <= k <= i, got k={k}, i={i}")
    d_i = dim_stratum(Stratum(space, i))
    return q_binomial(space.n - k, i - k).stretch(2).shift(-d_i)


class DecompositionTable:
    """Multiplicity table of a projective pushforward from the rank-p
    resolution: entries[i] is a Laurent polynomial whose q^j coefficient
    is the multiplicity of the rank-i simple module in cohomological
    degree j. Only indices 0 <= i <= p occur and all coefficients are
    nonnegative; zero entries are omitted."""

    def __init__(self, space: MatrixSpace, p: int, entries: dict):
        if not 0 <= p <= space.n:
            raise ValueError(f"stratum index p={p} outside 0..{space.n}")
        clean = {}
        for i in sorted(entries):
            poly = entries[i]
            if poly.is_zero:
                continue
            if not 0 <= i <= p:
                raise ValueError(f"summand index {i} outside 0..{p}")
            if min(poly._c) < 0:
                raise ValueError(f"negative multiplicity in entry {i}: {poly}")
            clean[i] = poly
        self.space = space
        self.p = p
        self.entries = clean

    def __eq__(self, other):
        return (
            isinstance(other, DecompositionTable)
            and self.space == other.space
            and self.p == other.p
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"DecompositionTable({self.space}, p={self.p}, {self.entries!r})"

    def lines(self) -> list[str]:
        return [f"i={i}: {self.entries[i]}" for i in sorted(self.entries, reverse=True)]

    def to_json(self) -> str:
        """The text `json.dumps` writes for {"m": m, "n": n, "p": p,
        "entries": [{"i": i, "poly": coefficients}, ...]}, by increasing i,
        each polynomial written by `LaurentPoly.to_json`."""
        entries = ", ".join(
            f'{{"i": {i}, "poly": {self.entries[i].to_json()}}}' for i in sorted(self.entries)
        )
        return f'{{"m": {self.space.m}, "n": {self.space.n}, "p": {self.p}, "entries": [{entries}]}}'


def solve_pushforward_OYp(space: MatrixSpace, p: int) -> DecompositionTable:
    """Multiplicities f_i(q) in the pushforward of the structure sheaf of
    the rank-p resolution, solved from the stalk identities

        qbin(m-k, p-k)@q^2 =
            sum_{i=k}^p f_i(q) * q^((p-i)(m+n-p-i)) * qbin(n-k, i-k)@q^2

    by back-substitution from k = p down to k = 0 (`_solved_in_t`), each
    g_i then stretched back to q."""
    if not 0 <= p <= space.n:
        raise ValueError(f"stratum index p={p} outside 0..{space.n}")
    m, n = space.m, space.n
    f = {
        k: _stretched(2 * g.lo - (p - k) * (m + n - p - k), g.coeffs)
        for k, g in _solved_in_t(space, p).items()
    }
    return DecompositionTable(space, p, f)


def _solved_in_t(space: MatrixSpace, p: int) -> dict[int, _Packed]:
    """The unknowns g_i = f_i * q^((p-i)(m+n-p-i)) of the rank-p table in
    t = q^2, where the stalk identities read

        g_k(t) = qbin(m-k, p-k)(t) - sum_{i>k} g_i(t) * qbin(n-k, i-k)(t),

    with no shifts. Each g_i is kept as its lowest exponent in t, which is
    (p-i)(n-i) for the true table, and its coefficients from there, so
    its leading zeros are neither packed nor multiplied: each product
    g_i * qbin(n-k, i-k) is formed from the coefficients and shifted into
    place, and each row's sum is one `_packed_sum`. The coefficients of
    qbin(n-k, i-k) are nonnegative and sum to comb(n-k, i-k), so a
    product's slot bound is at most max|g_i| * comb(n-k, i-k): it grows
    with the largest coefficient of g_i, not with their sum."""
    m, n = space.m, space.n
    g: dict[int, _Packed] = {}
    for k in range(p, -1, -1):
        row = list(q_binomial(m - k, p - k)._c)
        products = [
            (g[i], _packing(n - k, i - k), g[i].lo) for i in range(k + 1, p + 1) if g[i].coeffs
        ]
        if products:
            count = max(a.lo + len(a.coeffs) + len(b.coeffs) - 1 for a, b, _ in products)
            row += [0] * (count - len(row))
            row[:count] = map(operator.sub, row[:count], _packed_sum(products, count))
            while row and not row[-1]:
                row.pop()
        low = row.index(next(filter(None, row))) if row else 0
        g[k] = _Packed(low, row[low:])
    return g


def _stretched(lo: int, coeffs) -> LaurentPoly:
    """q^lo * f(q^2), from the coefficients of a polynomial f that start
    and end nonzero."""
    out = [0] * (2 * len(coeffs) - 1) if coeffs else []
    out[::2] = coeffs
    return _dense(lo, tuple(out))


def closed_form_OYp(space: MatrixSpace, p: int) -> DecompositionTable:
    """Closed form of the same table: f_i(q) =
    q^(-(m-n-p+i)(p-i)) * qbin(m-n, p-i)@q^2."""
    if not 0 <= p <= space.n:
        raise ValueError(f"stratum index p={p} outside 0..{space.n}")
    m, n = space.m, space.n
    entries = {
        i: q_binomial(m - n, p - i).stretch(2).shift(-(m - n - p + i) * (p - i))
        for i in range(p + 1)
    }
    return DecompositionTable(space, p, entries)


def pushforward_prefactor(space: MatrixSpace, p: int) -> LaurentPoly:
    """The Grassmannian-bundle factor q^(-(n-p)(m-n)) * qbin(m-p, n-p)@q^2
    relating the rank-p simple module on the maximal-rank resolution to
    the structure sheaf of the rank-p resolution."""
    m, n = space.m, space.n
    return q_binomial(m - p, n - p).stretch(2).shift(-(n - p) * (m - n))


def pushforward_DpY(space: MatrixSpace, p: int, route: str = "closed") -> DecompositionTable:
    """Full multiplicity table for the pushforward of the rank-p simple
    module on the maximal-rank resolution:

        entries[i] = q^(-(n-p)(m-n)) * qbin(m-p, n-p)@q^2
                     * q^(-(m-n-p+i)(p-i)) * qbin(m-n, p-i)@q^2,

    the `pushforward_prefactor` times the table of the rank-p resolution's
    structure sheaf. Route "closed" builds the entries in t = q^2 along
    their diagonal: entry p is the prefactor, and entry i-1 is entry i
    times (1 - t^(m-n-p+i)) / (1 - t^(p-i+1)), each division checked to be
    exact, until the factor 1 - t^0 makes the rest vanish. Route "solver"
    solves the structure sheaf's table with `solve_pushforward_OYp` and
    multiplies each entry by the prefactor, packed once per table.
    """
    if not 0 <= p <= space.n:
        raise ValueError(f"stratum index p={p} outside 0..{space.n}")
    build = {"closed": _closed_rows, "solver": _solved_rows}.get(route)
    if build is None:
        raise ValueError(f"unknown route {route!r}; expected 'closed' or 'solver'")
    m, n = space.m, space.n
    rows = build(space, p).items()
    entries = {i: _stretched(-(n - p) * (m - n) + lo, row) for i, (lo, row) in rows}
    return DecompositionTable(space, p, entries)


def _closed_rows(space: MatrixSpace, p: int) -> dict[int, tuple[int, list]]:
    """Each entry i of the rank-p table in t = q^2, divided by the
    prefactor's power of q, as (lowest exponent in q, coefficients in t):
    qbin(m-p, n-p) * qbin(m-n, p-i), by the recurrence along the
    diagonal of qbin(m-n, .)."""
    m, n = space.m, space.n
    row = q_binomial(m - p, n - p)._c
    rows = {p: (0, row)}
    for i in range(p, 0, -1):
        s = m - n - p + i
        if not s:
            break
        row = _divide_one_minus_q(_times_one_minus_q(row, s), p - i + 1)
        rows[i - 1] = (-(s - 1) * (p - i + 1), row)
    return rows


def _solved_rows(space: MatrixSpace, p: int) -> dict[int, tuple[int, list]]:
    """The rows of `_closed_rows` from the solved g_i in t, each times the
    prefactor qbin(m-p, n-p): one product per entry, the prefactor packed
    once per slot width."""
    m, n = space.m, space.n
    prefactor = _packing(m - p, n - p)
    rows = {}
    for i, g in _solved_in_t(space, p).items():
        if g.coeffs:
            count = len(g.coeffs) + len(prefactor.coeffs) - 1
            rows[i] = 2 * g.lo - (p - i) * (m + n - p - i), _packed_sum([(g, prefactor, 0)], count)
    return rows


# (a, b) -> (q_binomial(a, b), its `_Packed`)
_PACKINGS: dict[tuple[int, int], tuple[LaurentPoly, _Packed]] = {}


def _packing(a: int, b: int) -> _Packed:
    """q_binomial(a, b) as a `_Packed`, rebuilt whenever q_binomial returns
    another object than the one it was built from."""
    poly = q_binomial(a, b)
    entry = _PACKINGS.get((a, b))
    if entry is None or entry[0] is not poly:
        entry = _PACKINGS[a, b] = poly, _Packed(poly._lo, poly._c)
    return entry[1]


def qbinomial_identity_verdicts(a: int, b: int, cmax: int) -> list[bool]:
    """Check the q-Vandermonde convolution

        qbin(a+b, c) = sum_{j=0}^c q^(j*(b-c+j)) * qbin(a, j) * qbin(b, c-j)

    as an exact polynomial equality for each c = 0..cmax, and return the
    verdicts in order of c. (The exponent comes from comparing z^c
    coefficients in the factorization of the q-Pochhammer symbol:
    b*j + comb(j, 2) + comb(c-j, 2) - comb(c, 2) = j*(b-c+j).) Since
    qbin(x, y) is zero for y > x, only the terms with j <= a and
    c-j <= b are formed, and qbin(a, j) and qbin(b, i) are fetched once
    for all c.

    An operand with a negative coefficient fails every c it enters.
    Otherwise the values at q = 1 are compared first, those of every
    right side at once as one product of the lists of operand values.
    Where they agree, both sides are compared as single integers, each
    polynomial evaluated at q = 256^w by packing its coefficients into
    w-byte slots. This is exact: every coefficient is nonnegative and at
    most the common value at q = 1, which w bytes exceed, so no slot
    carries into the next and equal integers mean equal coefficients.
    That value is comb(a+b, c) <= comb(a+b, (a+b)//2) when the identity
    holds, so one width, taken from the latter, serves every c, and each
    operand is packed once; a larger value, which only a wrong
    q-binomial has, gets wider slots."""
    if min(a, b, cmax) < 0:
        raise ValueError("the q-binomial identity needs a, b, c >= 0")
    lhs = [_packing(a + b, c) for c in range(cmax + 1)]
    left = [_packing(a, j) for j in range(min(a, cmax) + 1)]
    right = [_packing(b, i) for i in range(min(b, cmax) + 1)]
    # The c that an operand with a negative coefficient enters.
    refused = {c for c, side in enumerate(lhs) if side.total is None}
    refused.update(j + i for j, l in enumerate(left) if l.total is None for i in range(len(right)))
    refused.update(j + i for i, r in enumerate(right) if r.total is None for j in range(len(left)))
    # The value at q = 1 of the right side of each c.
    values = _convolve([l.total or 0 for l in left], [r.total or 0 for r in right])
    values += [0] * (cmax + 1 - len(values))
    width = _slot_width(comb(a + b, (a + b) // 2))
    cap = 1 << (8 * width)
    # The term of j lies at q^(j*(b-c+j)) * q^base or above, and
    # j*(b-c+j) >= 0 since j >= c-b.
    base = min(l.lo for l in left) + min(r.lo for r in right)
    packed = {}  # slot width -> the operands packed by _packed_from_lowest
    verdicts = []
    for c, side in enumerate(lhs):
        if c in refused or values[c] != side.total:
            verdicts.append(False)
            continue
        w = width if side.total < cap else _slot_width(side.total)
        if w not in packed:
            packed[w] = (_packed_from_lowest(left, w), _packed_from_lowest(right, w))
        left_int, right_int = packed[w]
        bits = 8 * w
        js = range(max(0, c - b), min(a, c) + 1)
        rhs = sum((left_int[j] * right_int[c - j]) << (bits * j * (b - c + j)) for j in js)
        lo = min(side.lo, base)
        verdicts.append(side.packed(w)[0] << (bits * (side.lo - lo)) == rhs << (bits * (base - lo)))
    return verdicts


def _packed_from_lowest(packings: list, width: int) -> list:
    """Each packing in slots of `width` bytes, as the polynomial divided by
    q^low for the lowest exponent low of all of them, at q = 256^width.
    A polynomial with a negative coefficient, or one too large for the
    slots, is 0 instead, as no c compared at this width multiplies it by a
    nonzero partner: every c the first enters is refused, and the second
    would give the right side a coefficient at least its largest, beyond
    the right side's value at q = 1, which fits the slots."""
    low = min(pk.lo for pk in packings)
    cap = 1 << (8 * width)
    return [
        pk.packed(width)[0] << (8 * width * (pk.lo - low))
        if pk.total is not None and pk.peak < cap
        else 0
        for pk in packings
    ]


def verify_qbinomial_identity(a: int, b: int, c: int) -> bool:
    """The q-Vandermonde convolution at one c: the verdict for c of
    `qbinomial_identity_verdicts`."""
    return qbinomial_identity_verdicts(a, b, c)[c]


def pushforward_structure_checks(space: MatrixSpace, p: int) -> VerificationReport:
    """Structural facts about the pushforward table of the rank-p simple
    module: (a) only summand indices i <= p occur; (b) the top degree of
    entry i is (n-p)(m-n) + (p-i)(m-n-p+i); (c) degree (n-i)(m-n) carries
    a nonzero multiplicity in entry i exactly when i = p."""
    m, n = space.m, space.n
    table = pushforward_DpY(space, p)
    report = VerificationReport("pushforward-structure", {"m": m, "n": n, "p": p})
    for i in table.entries:
        report.checks += 1
        if not 0 <= i <= p:
            report.add_failure(check="summand-range", i=i)
    for i, poly in table.entries.items():
        report.checks += 1
        expected_top = (n - p) * (m - n) + (p - i) * (m - n - p + i)
        if poly.max_exp != expected_top:
            report.add_failure(
                check="top-degree", i=i, top=poly.max_exp, expected=expected_top
            )
    for i in range(p + 1):
        report.checks += 1
        coeff = table.entries.get(i, LaurentPoly.zero()).coefficient((n - i) * (m - n))
        if (coeff != 0) != (i == p):
            report.add_failure(check="middle-degree", i=i, coefficient=coeff)
    return report
