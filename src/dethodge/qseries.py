"""Gaussian binomials in q and the multiplicity tables of the
Decomposition Theorem for the standard resolutions of determinantal
varieties, with the exact Laurent polynomials that hold their rows.

The central computation: pushing a simple module of the rank-p stratum
down a projective resolution produces, in each cohomological degree j, a
semisimple module. Encoding the degree in a formal variable q turns the
bookkeeping into Laurent polynomial identities: stalks of IC sheaves are
Gaussian binomials at q^2 (up to a shift), and the multiplicity
polynomials f_i(q) are pinned down by a triangular system solvable by
exact back-substitution. The closed form is a shifted q-binomial, so the
solver doubles as an identity checker.

Every polynomial here is one type, `LaurentPoly`, the tables' row type,
dense: the exponent of its lowest term and the tuple of coefficients
from there to its highest term, with no zeros at either end, all ints
(a float, a bool or a string is refused with a TypeError). It has what
the tables use and no more: construction from a map of exponents to
coefficients, `LaurentPoly.items`, `LaurentPoly.coefficient`,
`LaurentPoly.max_exp`, truth value, equality, hash, the product of two
polynomials, `LaurentPoly.to_json` and str(). Long operands are
multiplied by Kronecker substitution: each coefficient list, split into
its positive and negative parts, is packed into one Python integer, so
one C-level big-integer product does the whole convolution. Every slot
width comes from one rule, `_slot_bound`: a slot of a*b sums terms of at
most |a_j| * |b_(s-j)|, so it holds at most
min(max|a| * sum|b|, sum|a| * max|b|), and a sum of products gets the
sum of those bounds. `_packed_sum`, through which every packed product
goes, and `qbinomial_identity_verdicts` size their slots by it. A
polynomial keeps those bounds, and its packing per slot width, once
computed, so a cached `q_binomial` is packed once per width.

The solver (`_solved_in_t`) works in t = q^2 on shifted unknowns g_i,
where the system has no shifts, and sums each row's products as one
`_packed_sum`. The closed form is one recurrence along the diagonal of
qbin(m-n, .), `_closed_rows`, with no polynomial products: from 1 it
gives the g_i of `closed_form_OYp`, from qbin(m-p, n-p) the closed rows
of `pushforward_DpY`, whose solver rows are the g_i times qbin(m-p, n-p).
`_table` takes every table's rows from t to q.
`LaurentPoly.to_json` and `DecompositionTable.to_json` write the text
json.dumps would, from cached key templates (`JSON_KEY_BLOCK` exponents
per block).

`q_binomial(a, b)` is built along its diagonal qbin(c+j, j), c = a-b,
each diagonal once and in order, by checked divisions by 1 - q^j.
`qbinomial_identity_verdicts(a, b, cmax)` checks the q-Vandermonde
convolution for every c <= cmax of one (a, b), comparing both sides as
packed integers in one slot width, the largest `_slot_bound` of a right
side.
"""

from __future__ import annotations

import operator
import sys
from array import array
from functools import lru_cache
from itertools import accumulate, chain, compress, islice

from .matrixspace import MatrixSpace, _check_int, _check_stratum, _is_int, _Record, dim_stratum
from .reporting import VerificationReport

# Below this product of operand lengths the schoolbook convolution beats
# packing into big integers.
SCHOOLBOOK_BELOW = 64


class LaurentPoly:
    """Integer Laurent polynomial in one variable q, the row type of the
    multiplicity tables. Immutable, exact.

    `_c` holds the coefficients of q^_lo, q^(_lo+1), ..., q^max_exp; its
    first and last entries are nonzero. The zero polynomial has
    `_c == ()` and `_lo == 0`. `_stats` and `_packings` start as None and
    keep, once asked for, what `_bounds` and `_packed` compute; they take
    no part in `==` or `hash`."""

    __slots__ = ("_lo", "_c", "_stats", "_packings")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, v in items:
                if not (_is_int(e) and _is_int(v)):
                    raise TypeError(
                        f"exponents and coefficients must be int, got {v!r} at q^{e!r}"
                    )
                if v:
                    c[int(e)] = int(v)
        self._lo, self._c = 0, ()
        self._stats = self._packings = None
        if c:
            lo = min(c)
            dense = [0] * (max(c) - lo + 1)
            for e, v in c.items():
                dense[e - lo] = v
            self._lo, self._c = lo, tuple(dense)

    def items(self):
        """(exponent, coefficient) of each nonzero term, by increasing exponent."""
        return [(e, v) for e, v in enumerate(self._c, self._lo) if v]

    def coefficient(self, exp: int) -> int:
        i = exp - self._lo
        return self._c[i] if 0 <= i < len(self._c) else 0

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no support")
        return self._lo + len(self._c) - 1

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __hash__(self):
        return hash((self._lo, self._c))

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not (a and b):
            return LaurentPoly()
        if len(a) * len(b) < SCHOOLBOOK_BELOW:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        out[k] += x * y
        else:
            # Kronecker substitution.
            out = _packed_sum([(self, other, 0)], len(a) + len(b) - 1)
        # The end coefficients multiply to nonzero ends: nothing to trim.
        return _dense(self._lo + other._lo, tuple(out))

    def _bounds(self) -> tuple:
        """The largest |coefficient|, the sum of the |coefficients|, and
        whether a coefficient is negative, kept once computed."""
        stats = self._stats
        if stats is None:
            magnitudes = list(map(abs, self._c))
            stats = self._stats = (
                max(magnitudes, default=0), sum(magnitudes), min(self._c, default=0) < 0
            )
        return stats

    def _packed(self, width: int) -> tuple[int, int]:
        """The packed positive parts and the packed magnitudes of the
        negative parts of the coefficients from the lowest term, in slots
        of `width` bytes, kept per width once computed."""
        packings = self._packings
        if packings is None:
            packings = self._packings = {}
        value = packings.get(width)
        if value is None:
            c = self._c
            if self._bounds()[2]:
                value = _pack([max(x, 0) for x in c], width), _pack([max(-x, 0) for x in c], width)
            else:
                value = _pack(c, width), 0
            packings[width] = value
        return value

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
    out._stats = out._packings = None
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


def _at_q_squared(f: LaurentPoly, d: int) -> LaurentPoly:
    """q^d * f(q^2), built as one polynomial."""
    c = f._c
    out = [0] * (2 * len(c) - 1)
    out[::2] = c
    return _dense(2 * f._lo + d, tuple(out))


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


def _slot_bound(products) -> int:
    """The sum of min(max|a| * sum|b|, sum|a| * max|b|) over the triples
    (a, b, offset) that `_packed_sum` takes: a bound on every coefficient
    of the sum of the products of their positive and negative parts,
    whatever the offsets."""
    bound = 0
    for a, b, _ in products:
        a_peak, a_norm, _ = a._stats or a._bounds()
        b_peak, b_norm, _ = b._stats or b._bounds()
        bound += min(a_peak * b_norm, a_norm * b_peak)
    return bound


def _packed_sum(products, count: int) -> list:
    """The first `count` coefficients of the sum of the products
    a * b * q^offset, given as triples of two `LaurentPoly`, each read from
    its lowest term, and the offset in slots: each product is formed
    from its operands alone and shifted into place, in slots that hold
    `_slot_bound` of the products, so none carries into the next."""
    width = _slot_width(_slot_bound(products))
    positive = negative = 0
    bits = 8 * width
    for a, b, offset in products:
        (a_pos, a_neg), (b_pos, b_neg) = a._packed(width), b._packed(width)
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


@lru_cache(maxsize=None, typed=True)
def q_binomial(a: int, b: int) -> LaurentPoly:
    """Gaussian binomial coefficient as an exact polynomial in q:

        (1-q^a)(1-q^(a-1))...(1-q^(a-b+1)) / ((1-q^b)...(1-q)),

    zero when a < b. The result has degree b*(a-b), nonnegative
    palindromic coefficients, and value comb(a, b) at q = 1. After b is
    replaced by min(b, a-b), it lies on the diagonal qbin(c+j, j) with
    c = a-b, and is built from the longest prefix of that diagonal built
    so far, one factor pair at a time: qbin(c+j, j) = qbin(c+j-1, j-1) *
    (1-q^(c+j)) / (1-q^j), each division checked to be exact. The cache
    is typed, so no int entry answers a float or bool, which is refused.
    """
    _check_int("a", a)
    _check_int("b", b)
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
    of an N-dimensional space: q_binomial(N, r) at q^2, so zero when
    r > N, and a ValueError when r < 0."""
    _check_int("r", r)
    _check_int("N", N)
    return _at_q_squared(q_binomial(N, r), 0)


def stalk_poly(i: int, k: int, space: MatrixSpace) -> LaurentPoly:
    """Stalk cohomology of the IC complex of the rank <= i locus at a
    point of rank k, encoded as q^(-d_i) * qbin(n-k, i-k) at q^2. Defined
    for 0 <= k <= i (the point must lie in the closure)."""
    _check_stratum(space, i, "i")
    _check_int("k", k)
    if not 0 <= k <= i:
        raise ValueError(f"stalk formula needs 0 <= k <= i, got k={k}, i={i}")
    return _at_q_squared(q_binomial(space.n - k, i - k), -dim_stratum(space, i))


class DecompositionTable(_Record):
    """Multiplicity table of a projective pushforward from the rank-p
    resolution: entries[i] is a Laurent polynomial whose q^j coefficient
    is the multiplicity of the rank-i simple module in cohomological
    degree j. Only indices 0 <= i <= p occur and all coefficients are
    nonnegative; zero entries are omitted. Entries come as a dict from
    int indices to `LaurentPoly`, and anything else is refused with a
    TypeError before the entries are sorted. Frozen; its dict of entries
    makes it unhashable."""

    __slots__ = __match_args__ = ("space", "p", "entries")
    __hash__ = None

    def __init__(self, space: MatrixSpace, p: int, entries: dict):
        _check_stratum(space, p)
        if not isinstance(entries, dict):
            raise TypeError(f"entries must be a dict, got {entries!r}")
        for i, poly in entries.items():
            _check_int("summand index", i)
            if not isinstance(poly, LaurentPoly):
                raise TypeError(f"entry {i} must be a LaurentPoly, got {poly!r}")
        clean = {}
        for i in sorted(entries):
            poly = entries[i]
            if not poly:
                continue
            if not 0 <= i <= p:
                raise ValueError(f"summand index {i} outside 0..{p}")
            if min(poly._c) < 0:
                raise ValueError(f"negative multiplicity in entry {i}: {poly}")
            clean[i] = poly
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", clean)

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
    g_i then taken back to q by `_table`."""
    _check_stratum(space, p)
    return _table(space, p, _solved_in_t(space, p), 0)


def _solved_in_t(space: MatrixSpace, p: int) -> dict[int, LaurentPoly]:
    """The unknowns g_i = f_i * q^((p-i)(m+n-p-i)) of the rank-p table in
    t = q^2, where the stalk identities read

        g_k(t) = qbin(m-k, p-k)(t) - sum_{i>k} g_i(t) * qbin(n-k, i-k)(t),

    with no shifts. The lowest exponent of g_i is (p-i)(n-i) for the true
    table, and its leading zeros are neither packed nor multiplied: each
    product g_i * qbin(n-k, i-k) is formed from the coefficients and
    shifted into place by that exponent, and each row's sum is one
    `_packed_sum`. The coefficients of qbin(n-k, i-k) are nonnegative and
    sum to comb(n-k, i-k), so a product's slot bound is at most
    max|g_i| * comb(n-k, i-k): it grows with the largest coefficient of
    g_i, not with their sum."""
    m, n = space.m, space.n
    g: dict[int, LaurentPoly] = {}
    for k in range(p, -1, -1):
        row = list(q_binomial(m - k, p - k)._c)
        products = [
            (g[i], q_binomial(n - k, i - k), g[i]._lo) for i in range(k + 1, p + 1) if g[i]._c
        ]
        if products:
            count = max(a._lo + len(a._c) + len(b._c) - 1 for a, b, _ in products)
            row += [0] * (count - len(row))
            row[:count] = map(operator.sub, row[:count], _packed_sum(products, count))
        g[k] = _trimmed(0, row)
    return g


def closed_form_OYp(space: MatrixSpace, p: int) -> DecompositionTable:
    """Closed form of the same table, f_i(q) = q^(-(m-n-p+i)(p-i)) *
    qbin(m-n, p-i)@q^2: the g_i of `_closed_rows` from g_p = 1."""
    _check_stratum(space, p)
    return _table(space, p, _closed_rows(space, p, _dense(0, (1,))), 0)


def pushforward_DpY(space: MatrixSpace, p: int, route: str = "closed") -> DecompositionTable:
    """Full multiplicity table for the pushforward of the rank-p simple
    module on the maximal-rank resolution:

        entries[i] = q^(-(n-p)(m-n)) * qbin(m-p, n-p)@q^2
                     * q^(-(m-n-p+i)(p-i)) * qbin(m-n, p-i)@q^2,

    the Grassmannian-bundle prefactor q^(-(n-p)(m-n)) * qbin(m-p, n-p)@q^2
    times the table of the rank-p resolution's structure sheaf. Both
    routes build row i as g_i * qbin(m-p, n-p) in t = q^2, taken to q by
    `_table`: route "closed" by `_closed_rows` from the top row
    qbin(m-p, n-p), route "solver" by multiplying each g_i of
    `_solved_in_t` by qbin(m-p, n-p), which is packed once per slot width.
    """
    _check_stratum(space, p)
    m, n = space.m, space.n
    prefactor = q_binomial(m - p, n - p)
    if route == "closed":
        rows = _closed_rows(space, p, prefactor)
    elif route == "solver":
        rows = {i: g * prefactor for i, g in _solved_in_t(space, p).items() if g._c}
    else:
        raise ValueError(f"unknown route {route!r}; expected 'closed' or 'solver'")
    return _table(space, p, rows, -(n - p) * (m - n))


def _closed_rows(space: MatrixSpace, p: int, start: LaurentPoly) -> dict[int, LaurentPoly]:
    """The rows g_i * start of the rank-p table in t = q^2 (start with a
    nonzero constant term; row i from t^((p-i)(n-i))): row p is start,
    and row i-1 is row i times (1 - t^(m-n-p+i)) / (1 - t^(p-i+1)), each
    division checked to be exact, until the factor 1 - t^0 makes the
    rest vanish."""
    m, n = space.m, space.n
    row, rows = start, {p: start}
    for i in range(p, 0, -1):
        s = m - n - p + i
        if not s:
            break
        coeffs = _divide_one_minus_q(_times_one_minus_q(row._c, s), p - i + 1)
        row = rows[i - 1] = _dense((p - i + 1) * (n - i + 1), tuple(coeffs))
    return rows


def _table(space: MatrixSpace, p: int, rows: dict, shift: int) -> DecompositionTable:
    """The rank-p table whose entry i is q^(shift - (p-i)(m+n-p-i)) times
    row i at t = q^2."""
    d = space.m + space.n - p
    entries = {i: _at_q_squared(row, shift - (p - i) * (d - i)) for i, row in rows.items()}
    return DecompositionTable(space, p, entries)


def qbinomial_identity_verdicts(a: int, b: int, cmax: int) -> list[bool]:
    """Check the q-Vandermonde convolution

        qbin(a+b, c) = sum_{j=0}^c q^(j*(b-c+j)) * qbin(a, j) * qbin(b, c-j)

    as an exact polynomial equality for each c = 0..cmax, and return the
    verdicts in order of c. (The exponent comes from comparing z^c
    coefficients in the factorization of the q-Pochhammer symbol:
    b*j + comb(j, 2) + comb(c-j, 2) - comb(c, 2) = j*(b-c+j).) As
    qbin(x, y) = 0 for y > x, only the terms with j <= a and c-j <= b
    are formed, from qbin(a, j) and qbin(b, i) fetched once for all c.

    Both sides are compared as integers, each polynomial packed once into
    w-byte slots, i.e. evaluated at q = 256^w, where w bytes hold the
    largest `_slot_bound` of a right side, so no slot of one carries. An
    operand with a negative coefficient, which no q-binomial has, fails
    every c it enters, and so does one with a coefficient of 256^w or
    more, which neither a right side nor an operand with a nonzero
    partner has. Otherwise equal integers mean equal coefficients."""
    _check_int("a", a)
    _check_int("b", b)
    _check_int("cmax", cmax)
    if min(a, b, cmax) < 0:
        raise ValueError("the q-binomial identity needs a, b, c >= 0")
    lhs = [q_binomial(a + b, c) for c in range(cmax + 1)]
    left = [q_binomial(a, j) for j in range(min(a, cmax) + 1)]
    right = [q_binomial(b, i) for i in range(min(b, cmax) + 1)]
    terms = [range(max(0, c - b), min(a, c) + 1) for c in range(cmax + 1)]
    # Each right side as the products a * b * q^offset of `_packed_sum`.
    sides = [[(left[j], right[c - j], j * (b - c + j)) for j in js] for c, js in enumerate(terms)]
    width = _slot_width(max(_slot_bound(side) for side in sides))
    bits, cap = 8 * width, 1 << (8 * width)
    # Each operand is read from q^low, low <= 0, so each product from q^(2*low).
    low = min(0, *(f._lo for f in chain(lhs, left, right)))

    def packed(f):  # None for an operand that fails every c it enters
        peak, _, negative = f._bounds()
        return None if negative or peak >= cap else f._packed(width)[0] << (bits * (f._lo - low))

    lhs_ints, left_ints, right_ints = ([packed(f) for f in polys] for polys in (lhs, left, right))
    refused = None in left_ints or None in right_ints
    verdicts = []
    for c, js in enumerate(terms):
        lhs_c = lhs_ints[c]
        if lhs_c is None or refused and any(None in (left_ints[j], right_ints[c - j]) for j in js):
            verdicts.append(False)
        else:
            rhs = sum((left_ints[j] * right_ints[c - j]) << (bits * j * (b - c + j)) for j in js)
            verdicts.append(lhs_c << (bits * -low) == rhs)
    return verdicts


def _structure_checks(table: DecompositionTable) -> VerificationReport:
    """Structural facts about the pushforward table of the rank-p simple
    module, `pushforward_DpY`: (a) only summand indices i <= p occur; (b)
    the top degree of entry i is (n-p)(m-n) + (p-i)(m-n-p+i); (c) degree
    (n-i)(m-n) carries a nonzero multiplicity in entry i exactly when
    i = p."""
    space, p = table.space, table.p
    m, n = space.m, space.n
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
        coeff = table.entries.get(i, LaurentPoly()).coefficient((n - i) * (m - n))
        if (coeff != 0) != (i == p):
            report.add_failure(check="middle-degree", i=i, coefficient=coeff)
    return report
