"""Exact arithmetic for integer unitriangular matrix groups.

The package's immutable records, the matrices among them, derive from
one base (_Frozen), which sets each field once and refuses assignment
afterwards; matrices are immutable so they can serve as dict keys and
set members.  The engine's size guard lives here too: GuardError, and
the cap MAX_POSITIONS on the strictly-upper positions of a matrix size,
which the layers above check through _check_positions.

All three matrix classes share one storage (_SparseMatrix): only the
nonzero entries, one dict per row from 0-based column to value, with
the dense rows built on demand.  UnitriangularMatrix (group elements)
and RationalNilpotentMatrix (Lie elements) keep the strictly-upper
entries; RationalSquareMatrix, the carrier of embedding images that
are not unitriangular, keeps the diagonal too.  Products of all three
go row by row through one sparse kernel (_add_into), and the square
inverse is Gauss-Jordan on dict rows.  The level-major lead of a
matrix is read off its row minima.  All arithmetic is exact: ints for
group elements, fractions for matrix logarithms.  Positions are
1-based pairs (i, j) with i < j, matching the usual notation s_ij for
an elementary matrix with a single off-diagonal entry.
"""

import operator
import re
from fractions import Fraction
from itertools import repeat

__all__ = [
    "GuardError",
    "UnitriangularMatrix",
    "RationalNilpotentMatrix",
    "RationalSquareMatrix",
    "identity",
    "binary_power",
    "elementary",
    "commutator",
    "level_weight",
    "log_unipotent",
    "exp_nilpotent",
    "matrix_to_json",
    "matrix_from_json",
]


class GuardError(RuntimeError):
    """A search was asked to exceed its hard instance-size bound."""


# standardize can fill one slot per strictly-upper position of UT_N(Z),
# N(N-1)/2 of them, and its closure's round cap is their square plus 4;
# the cap keeps N <= 724 and admits the Jennings image of ut:6 (N = 624,
# 194376 positions)
MAX_POSITIONS = 1 << 18


def _check_positions(n, what="subgroup size N"):
    """N(N-1)/2 for N = n; GuardError, naming n as what, when it
    exceeds MAX_POSITIONS."""
    positions = n * (n - 1) // 2
    if positions > MAX_POSITIONS:
        raise GuardError(
            f"{what} = {n} has N(N-1)/2 = {positions} "
            f"positions; the cap is {MAX_POSITIONS}"
        )
    return positions


class _Frozen:
    """Base of the immutable records: a subclass names its fields in
    __slots__ and sets each once, in its constructor, with _freeze;
    assigning or deleting a field afterwards raises AttributeError
    naming the class.  copy and pickle rebuild a record from its
    fields (__reduce__)."""

    __slots__ = ()

    def _freeze(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _restore, (type(self), {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in cls.__dict__.get("__slots__", ())
        })


def _restore(cls, fields):
    """The record of class cls with the given fields."""
    return object.__new__(cls)._freeze(**fields)


class _SparseMatrix(_Frozen):
    """Storage shared by the matrix classes: ``entries`` holds, per
    row, a dict from 0-based column to each nonzero entry the class
    keeps, never mutated, and the dense ``rows`` put _diagonal on the
    diagonal besides them.  Immutable and hashable; equal when of one
    class with equal entries."""

    __slots__ = ("n", "entries")
    _diagonal = 0

    def _set(self, n, entries):
        # runs on every product, so it skips _freeze's keyword dict
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(entries))
        return self

    @property
    def rows(self):
        """The dense rows, as tuples."""
        out = []
        for i, r in enumerate(self.entries):
            row = [0] * self.n
            row[i] = self._diagonal
            for j, e in r.items():
                row[j] = e
            out.append(tuple(row))
        return tuple(out)

    def __eq__(self, other):
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(
            (i, j, e) for i, r in enumerate(self.entries)
            for j, e in r.items()
        ))

    def __repr__(self):
        return f"{type(self).__name__}({list(map(list, self.rows))!r})"


def _build(cls, n, entries):
    """A matrix of class cls from known-good sparse entries, skipping
    validation."""
    return object.__new__(cls)._set(n, entries)


def _exact(e):
    """An int stays an int; anything else becomes a Fraction."""
    return e if type(e) is int else Fraction(e)


def _sparse(rows):
    """(n, entries) of square rows, keeping every nonzero entry, the
    diagonal included, as _exact gives it; ValueError when the rows
    are not square.  The reader of the two rational classes;
    UnitriangularMatrix reads its int rows itself, in one pass."""
    rows = tuple(rows)
    n = len(rows)
    entries = []
    for row in rows:
        row = tuple(row)
        if len(row) != n:
            raise ValueError("matrix is not square")
        entries.append({j: _exact(e) for j, e in enumerate(row) if e})
    return n, entries


class UnitriangularMatrix(_SparseMatrix):
    """Upper triangular integer matrix with unit diagonal.

    Immutable and hashable.  Supports ``*``, ``**`` (any integer
    exponent), ``inverse()`` and 1-based ``entry(i, j)`` access.

    ``entries`` holds the nonzero strictly-upper int entries, so
    N = m - I is ``entries`` itself.  Products and inverses walk only
    these, and a product reuses the right factor's row where the left
    factor's row is a unit row.

    The constructor reads each row once: it must have n entries
    ("matrix is not square"), all ints ("matrix entries must be
    integers"), a 1 on the diagonal ("diagonal entry is not 1") and
    zeros before it ("nonzero entry below the diagonal"), checked in
    that order; the row's dict is built from the strictly-upper slice.
    A matrix with faults in several rows is refused for the first.
    """

    __slots__ = ()
    _diagonal = 1

    def __init__(self, rows):
        rows = tuple(rows)
        n = len(rows)
        entries = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n:
                raise ValueError("matrix is not square")
            # a zero, too, must be an int, and a bool is not one
            if not {int}.issuperset(map(type, row)):
                raise ValueError("matrix entries must be integers")
            if row[i] != 1:
                raise ValueError("diagonal entry is not 1")
            if any(row[:i]):
                raise ValueError("nonzero entry below the diagonal")
            entries.append(
                {j: e for j, e in enumerate(row[i + 1:], i + 1) if e}
            )
        self._set(n, entries)

    def entry(self, i, j):
        """Entry at 1-based position (i, j)."""
        return self.entries[i - 1].get(j - 1, int(i == j))

    def __mul__(self, other):
        if not isinstance(other, UnitriangularMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("size mismatch")
        b = other.entries
        out = []
        # row i of (I + A)(I + B) - I is b_i + a_i + a_i B
        for ai, bi in zip(self.entries, b):
            if ai:
                bi = _add_into(dict(bi), 1, ai)
                for k, c in ai.items():
                    _add_into(bi, c, b[k])
            out.append(bi)
        return _build(UnitriangularMatrix, self.n, out)

    def inverse(self):
        """Group inverse, row by row from the bottom: the strictly-upper
        rows x_i of the inverse satisfy x_i = -a_i - sum a_ik x_k over
        the nonzero a_ik, k > i."""
        a = self.entries
        x = list(a)  # a unit row stays a unit row
        for i in range(self.n - 1, -1, -1):
            ai = a[i]
            if ai:
                xi = {k: -c for k, c in ai.items()}
                for k, c in ai.items():
                    _add_into(xi, -c, x[k])
                x[i] = xi
        return _build(UnitriangularMatrix, self.n, x)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return binary_power(self, e, identity(self.n))

    @property
    def is_identity(self):
        return not any(self.entries)


def binary_power(x, e, one, mul=operator.mul, inverse=None):
    """x**e by square-and-multiply; one is x**0.  A negative e powers
    the inverse: inverse(x), or x.inverse() by default.  Neither a
    product with one nor a square past the top bit is formed."""
    if e < 0:
        x = inverse(x) if inverse else x.inverse()
        e = -e
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


_IDENTITY_CACHE = {}


def identity(n):
    """The n x n identity."""
    m = _IDENTITY_CACHE.get(n)
    if m is None:
        m = _IDENTITY_CACHE[n] = _build(UnitriangularMatrix, n, ({},) * n)
    return m


def elementary(n, i, j, alpha=1):
    """Identity plus alpha at 1-based position (i, j), i < j."""
    if not (1 <= i < j <= n):
        raise ValueError(f"position ({i}, {j}) is not above the diagonal")
    if type(alpha) is not int:
        raise ValueError("matrix entries must be integers")
    entries = [{}] * n
    if alpha:
        entries[i - 1] = {j - 1: alpha}
    return _build(UnitriangularMatrix, n, entries)


def commutator(a, b):
    """a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b


def _lead(m):
    """(level, row) of the first nonzero strictly-upper entry of m in
    level-major order (level j - i ascending, then row; rows 0-based),
    the least of each nonempty row's (level, row); None when there is
    none."""
    return min(
        ((min(r) - i, i) for i, r in enumerate(m.entries) if r),
        default=None,
    )


def level_weight(m):
    """Smallest j - i over nonzero entries; the depth of m in the
    lower central series of the full unitriangular group.

    Raises ValueError for the identity, whose weight is unbounded.
    """
    lead = _lead(m)
    if lead is None:
        raise ValueError("identity matrix has no finite weight")
    return lead[0]


class RationalNilpotentMatrix(_SparseMatrix):
    """Strictly upper triangular matrix over the rationals.

    The Lie-algebra side of the package: closed under +, -, scalar
    multiplication, matrix product and bracket(); a sum, product or
    bracket of two sizes raises ValueError, and +, - or * with an
    operand that is not such a matrix raises TypeError.  Entries are
    ints or Fractions (see _exact); int entries stay ints through every
    operation, so an integer-scaled matrix brackets without forming a
    Fraction.

    ``entries`` holds the nonzero strictly-upper entries, and every
    operation walks only these.
    """

    __slots__ = ()

    def __init__(self, rows):
        n, entries = _sparse(rows)
        if any(r and min(r) <= i for i, r in enumerate(entries)):
            raise ValueError("entry on or below the diagonal")
        self._set(n, entries)

    def __add__(self, other):
        if not isinstance(other, RationalNilpotentMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("size mismatch")
        return _build(RationalNilpotentMatrix, self.n, [
            _add_into(dict(ra), 1, rb)
            for ra, rb in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        if not isinstance(other, RationalNilpotentMatrix):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        c = _exact(c)
        return _build(RationalNilpotentMatrix, self.n, [
            {j: c * e for j, e in r.items() if c} for r in self.entries
        ])

    def __mul__(self, other):
        if not isinstance(other, RationalNilpotentMatrix):
            return NotImplemented
        return _products(RationalNilpotentMatrix, ((1, self, other),))

    def bracket(self, other):
        """Lie bracket self*other - other*self, in one pass."""
        return _products(
            RationalNilpotentMatrix, ((1, self, other), (-1, other, self))
        )

    @property
    def is_zero(self):
        return not any(self.entries)

    def upper_vector(self):
        """Strictly-upper entries flattened row-major."""
        return tuple(
            e for i, row in enumerate(self.rows) for e in row[i + 1:]
        )


def _add_into(acc, c, row):
    """acc += c * row for sparse rows and c != 0, dropping zeros."""
    for j, e in row.items():
        s = acc.get(j, 0) + c * e
        if s:
            acc[j] = s
        else:
            del acc[j]
    return acc


def _products(cls, terms):
    """The matrix of class cls summing sign * x * y over the (sign, x,
    y) in terms, row by row: row i of x * y is the sum of x_ik * y_k.
    ValueError "size mismatch" unless every factor has one size."""
    n = terms[0][1].n
    out = [{} for _ in range(n)]
    for sign, x, y in terms:
        if x.n != n or y.n != n:
            raise ValueError("size mismatch")
        for acc, xi in zip(out, x.entries):
            for k, c in xi.items():
                _add_into(acc, sign * c, y.entries[k])
    return _build(cls, n, out)


def log_unipotent(m):
    """Matrix logarithm of a unitriangular matrix.

    Finite alternating series in N = m - I; exact over the rationals.
    """
    num, den = _log_numerator(m)
    return num.scale(Fraction(1, den))


def _log_numerator(m):
    """(num, den) with log(m) == num / den: num is a nilpotent matrix
    with int entries and den a positive int, found without forming a
    Fraction."""
    nil = _build(RationalNilpotentMatrix, m.n, m.entries)
    # num/den is the sum of (-1)^(i+1) N^i / i over i < k, and term N^k
    num, den = nil, 1
    term, k = nil * nil, 2
    while not term.is_zero:
        num = num.scale(k) + term.scale(den if k % 2 else -den)
        den *= k
        term = term * nil
        k += 1
    return num, den


def exp_nilpotent(x):
    """Matrix exponential of a strictly upper triangular matrix.

    Finite series; raises ValueError if the result is not integral,
    since the group side of this package is over the integers.
    """
    total = term = x
    k = 1
    while not term.is_zero:
        k += 1
        term = (term * x).scale(Fraction(1, k))
        total = total + term
    if any(e.denominator != 1 for r in total.entries for e in r.values()):
        raise ValueError("exponential is not an integer matrix")
    return _build(UnitriangularMatrix, total.n, [
        {j: int(e) for j, e in r.items()} for r in total.entries
    ])


class RationalSquareMatrix(_SparseMatrix):
    """Square rational matrix with group arithmetic only.

    Representation images that fail the unitriangular shape still need
    multiplication, inversion, and powers for relator checks; this is
    the minimal carrier for that.  ``entries`` holds every nonzero
    entry, the diagonal included, as _exact gives it, so integer images
    multiply in ints, and the Gauss-Jordan inverse forms a Fraction only
    to divide by a pivot other than 1 or -1.
    """

    __slots__ = ()

    def __init__(self, rows):
        self._set(*_sparse(rows))

    @classmethod
    def identity(cls, n):
        return _build(cls, n, ({i: 1} for i in range(n)))

    def __mul__(self, other):
        if not isinstance(other, RationalSquareMatrix):
            return NotImplemented
        return _products(RationalSquareMatrix, ((1, self, other),))

    def inverse(self):
        """Gauss-Jordan on the dict rows of [A | I], the identity in
        columns n..2n-1: each column's pivot is the first row left with
        a nonzero there, swapped into place."""
        n = self.n
        a = [{**r, n + i: 1} for i, r in enumerate(self.entries)]
        for col in range(n):
            piv = next((r for r in range(col, n) if col in a[r]), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            row = a[col]
            pivot = row[col]
            if pivot != 1:
                inv = -1 if pivot == -1 else 1 / Fraction(pivot)
                row = a[col] = {j: e * inv for j, e in row.items()}
            for r, other in enumerate(a):
                if r != col and col in other:
                    _add_into(other, -other[col], row)
        return _build(RationalSquareMatrix, n, (
            {j - n: e for j, e in r.items() if j >= n} for r in a
        ))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return binary_power(self, e, RationalSquareMatrix.identity(self.n))


def matrix_to_json(m):
    """Wire form: {"n": ..., "rows": [[decimal strings]]}.

    Entries are strings so arbitrarily large integers survive any JSON
    reader.
    """
    return {
        "n": m.n,
        "rows": [[str(e) for e in row] for row in m.rows],
    }


def matrix_from_json(obj):
    """Inverse of matrix_to_json.  Raises ValueError on malformed input."""
    n, rows = _fields(obj, "matrix object", ("n", "rows"))
    n = _entry_from_json(n, "matrix size n")
    if len(_sequence(rows, "matrix rows")) != n:
        raise ValueError("matrix row count does not match n")
    return UnitriangularMatrix(_ints(row, "matrix row") for row in rows)


def _fields(obj, what, names, optional=()):
    """The fields of a wire object: obj[name] for each of names, then
    obj.get(name) for each of optional, in one list.  A TypeError,
    KeyError or AttributeError on the way (obj not a JSON object, a
    required name missing) raises ValueError("malformed {what}: ...")
    with the original message, the one refusal every reader of a wire
    object gives for a bad shape."""
    try:
        return [obj[name] for name in names] + [
            obj.get(name) for name in optional
        ]
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


_is_decimal = re.compile(r"[+-]?[0-9]+").fullmatch


def _entry_from_json(e, what="entry"):
    """A JSON integer or a decimal string; floats, booleans, NaN and
    infinities raise ValueError, naming the value as what, instead of
    being truncated."""
    if isinstance(e, str) and _is_decimal(e):
        return int(e)
    if not isinstance(e, int) or isinstance(e, bool):
        raise ValueError(f"{what} {e!r} is not an integer")
    return e


def _sequence(value, what):
    """value when it is a list (a JSON list) or a tuple; anything else,
    a string above all, which would be read character by character,
    raises ValueError naming it as what."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"{what} must be a JSON list, not {type(value).__name__}"
        )
    return value


def _ints(value, what):
    """The entries of value, a list or a tuple (see _sequence), read as
    _entry_from_json reads them, each named as an entry of what, into a
    tuple; all ints or all decimal strings are read in one pass."""
    if {int}.issuperset(map(type, _sequence(value, what))):
        return tuple(value)
    if {str}.issuperset(map(type, value)) and all(map(_is_decimal, value)):
        return tuple(map(int, value))
    return tuple(map(_entry_from_json, value, repeat(f"{what} entry")))
