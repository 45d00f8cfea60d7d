"""Central extensions of GF(2)^l by GF(2) built from a quadratic form.

The cocycle is the upper-triangular matrix M with M_ii = Q(e_i) and
M_ij = B_Q(e_i, e_j) for i < j, giving the multiplication law

    (u, eps) * (v, delta) = (u + v, eps + delta + u^T M v).

Squares recover Q and commutators recover B_Q, so the group determines the
form and vice versa.  Elements are packed ints (vec << 1) | central: 0 is the
identity and 1 the central involution.

``q_from_group`` reads the form through ``pmul`` alone.  For the lifts x, y
of e_i, e_j, Q(e_i) is x * x, and since xy = [x, y] yx with [x, y] central in
{0, 1}, B_Q(e_i, e_j) is xy XOR yx.  ``iso_oracle`` reads a form the same way
from any group law, over a basis modulo the Frattini subgroup; that ties the
hand-written Q8, D8 and Z4 tables below to H-, H+ and Q1.  It proves each
isomorphism by checking the relations of one presentation on both groups,
without building the map.

On packed ints the law is one XOR plus a parity.  For x = (u, eps) let R(x)
be the XOR of the cocycle rows M_i over the set bits i of u, shifted left by
one so that it skips the central bit of y; then

    x * y = x ^ y ^ parity(R(x) & y).

R(x) depends on the left factor only and is linear in x >> 1, so each model
keeps one private table of rows keyed by x >> 1, read by ``pmul`` and
``cocycle_row`` alike.  It starts with the row of 0 and the dim unit rows
(the cocycle rows M_i), and fills itself: a missing row is the row of x >> 1
without its lowest set bit, XORed with the unit row of that bit, built once
and stored, so the table holds at most 2^dim rows.  A left factor outside
the group reaches a single bit that has no unit row and raises IndexError
with nothing stored.  The table takes no part in equality, hashing or repr.
``center`` returns a view sized from a basis of the radical of B_Q; its
elements are built only when it is iterated.
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import cached_property
from itertools import product

from .f2linalg import BitMatrix, _Record, _span, kernel_basis, rank
from .quadform import (
    FormClass,
    Kind,
    QuadraticForm,
    _normal_basis,
    classify,
    direct_sum,
    zero_form,
)

FROM_FORM_DIM_CAP = 16
ISO_ORACLE_ORDER_CAP = 1 << (FROM_FORM_DIM_CAP + 1)


class _Rows(dict):
    """R(x) under the key x >> 1, seeded with 0 and the unit rows; a missing
    key is built from the key without its lowest set bit and stored, and a
    missing single-bit or negative key is outside the group: IndexError."""

    def __missing__(self, key: int) -> int:
        low = key & -key
        if key <= low:
            raise IndexError(f"no cocycle row for the key {key}")
        row = self[key] = self[key ^ low] ^ self[low]
        return row


class GexGroup(_Record):
    """Group of order 2^(dim+1) presented by a quadratic form via its cocycle,
    with its law read off a self-filling row table that only the form fixes."""

    _fields = ("form",)

    def __init__(self, form: QuadraticForm):
        if form.dim > FROM_FORM_DIM_CAP:
            raise ValueError(f"group dimension capped at {FROM_FORM_DIM_CAP}")
        rows = _Rows({0: 0})
        for i in range(form.dim):
            rows[1 << i] = (form.upper[i] | (form.diag >> i & 1) << i) << 1
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_rows", rows)

    @property
    def dim(self) -> int:
        return self.form.dim

    @property
    def order(self) -> int:
        return 1 << (self.form.dim + 1)

    # -- packed-int operations (hot path) ------------------------------------

    def cocycle_row(self, x: int) -> int:
        """R(x): pmul(x, y) == x ^ y ^ parity(R(x) & y) for every packed y."""
        return self._rows[x >> 1]

    def pmul(self, x: int, y: int) -> int:
        """x * y, with one read of the row table."""
        return x ^ y ^ ((self._rows[x >> 1] & y).bit_count() & 1)

    def to_string(self) -> str:
        return "gex:" + self.form.to_string()


def from_form(q: QuadraticForm) -> GexGroup:
    return GexGroup(q)


# -- subgroups ---------------------------------------------------------------


class Center(_Record):
    """{(v, eps) : v in radical(B_Q)}: both central fibers over the radical.

    A view: its size is 2^(k+1) for the k vectors of ``radical``, a basis of
    the radical, and iterating yields the packed elements in sorted order,
    read off the span table of that basis.
    """

    _fields = ("radical",)

    def __init__(self, radical: tuple[int, ...]):
        object.__setattr__(self, "radical", radical)

    def __len__(self) -> int:
        return 2 << len(self.radical)

    def __iter__(self):
        for v in sorted(_span(self.radical)):
            yield v << 1
            yield (v << 1) | 1


def center(g: GexGroup) -> Center:
    return Center(tuple(kernel_basis(g.form.polar())))


def frattini_order(g: GexGroup) -> int:
    """|Phi(G)| for Phi(G) = G^2 . [G,G], a 2-group's Frattini subgroup.

    Both factors live in the central fiber {0, 1}, and a nonzero B_Q forces
    a nonzero Q, so Phi(G) is trivial exactly when Q is the zero form.
    """
    return 1 if g.form.is_zero_form() else 2


# -- the group <-> form dictionary --------------------------------------------


def _read_form(pmul, gens, identity) -> QuadraticForm:
    """The form over gens read off the law pmul in len(gens)^2 applications:
    Q(g_i) is whether g_i^2 != identity and B(g_i, g_j) whether g_i and g_j
    fail to commute."""
    n = len(gens)
    diag = 0
    upper = [0] * n
    for i, x in enumerate(gens):
        diag |= (pmul(x, x) != identity) << i
        for j in range(i + 1, n):
            y = gens[j]
            upper[i] |= (pmul(x, y) != pmul(y, x)) << j
    return QuadraticForm(n, diag, tuple(upper))


def q_from_group(g: GexGroup) -> QuadraticForm:
    """Read the form off the group law alone, in dim^2 law applications:
    Q(e_i) is x * x and B_Q(e_i, e_j) is xy XOR yx, for the lifts x, y of
    e_i, e_j."""
    return _read_form(g.pmul, [1 << (i + 1) for i in range(g.dim)], 0)


def central_product(g1: GexGroup, g2: GexGroup) -> GexGroup:
    """Amalgamate the central involutions: modeled as the form direct sum."""
    for g in (g1, g2):
        if frattini_order(g) == 1:
            raise ValueError(
                "central product needs a nontrivial Frattini subgroup on each side"
            )
    return GexGroup(direct_sum(g1.form, g2.form))


def direct_z2(g: GexGroup, n: int) -> GexGroup:
    return GexGroup(direct_sum(g.form, zero_form(n)))


class BaseKind(enum.Enum):
    Q8_POWER = "Q8^*m"
    Q8_POWER_D8 = "Q8^*(m-1)*D8"
    Q8_POWER_Z4 = "Q8^*m*Z4"
    ELEMENTARY_ABELIAN = "Z2^k"


class GroupClass(_Record):
    """Isomorphism-class descriptor: base central product plus a Z2^n factor.

    Q8_POWER(m): Q8^*m (m >= 1).  Q8_POWER_D8(m): Q8^*(m-1) * D8 (m >= 1,
    m = 1 is plain D8).  Q8_POWER_Z4(m): Q8^*m * Z4 (m >= 0, m = 0 is plain
    Z4).  ELEMENTARY_ABELIAN: Z2^z2rank with m unused (the degenerate case the
    classification of generalized extraspecial groups leaves out).
    """

    _fields = ("base", "m", "z2rank")

    def __init__(self, base: BaseKind, m: int, z2rank: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "z2rank", z2rank)

    def describe(self) -> str:
        if self.base is BaseKind.ELEMENTARY_ABELIAN:
            return f"Z2^{self.z2rank}"
        def power(k: int) -> str:
            return "Q8" if k == 1 else f"Q8^*{k}"

        if self.base is BaseKind.Q8_POWER:
            core = power(self.m)
        elif self.base is BaseKind.Q8_POWER_D8:
            core = "D8" if self.m == 1 else f"{power(self.m - 1)}*D8"
        else:
            core = "Z4" if self.m == 0 else f"{power(self.m)}*Z4"
        if self.z2rank:
            return f"{core} x Z2" + (f"^{self.z2rank}" if self.z2rank > 1 else "")
        return core


def group_class_of_form_class(fc: FormClass) -> GroupClass:
    """Translate a form class into the central-product decomposition.

    H-^m collapses to Q8^*m for m odd and Q8^*(m-1)*D8 for m even (and dually
    for the Plus kind); a Q1 summand contributes the Z4 factor and eats one
    radical dimension.
    """
    if fc.kind is Kind.ZERO:
        return GroupClass(BaseKind.ELEMENTARY_ABELIAN, 0, fc.dim + 1)
    if fc.kind is Kind.QONE:
        return GroupClass(BaseKind.Q8_POWER_Z4, fc.m1, fc.m2 - 1)
    if fc.kind is Kind.MINUS:
        base = BaseKind.Q8_POWER if fc.m1 % 2 == 1 else BaseKind.Q8_POWER_D8
    else:  # PLUS, m1 >= 1
        base = BaseKind.Q8_POWER if fc.m1 % 2 == 0 else BaseKind.Q8_POWER_D8
    return GroupClass(base, fc.m1, fc.m2)


def classify_group(g: GexGroup) -> GroupClass:
    return group_class_of_form_class(classify(g.form))


# -- reference multiplication tables -------------------------------------------
# Index tables for the two extraspecial atoms and Z4, independent of any form.
# Q8 elements: 1, -1, i, -i, j, -j, k, -k.  D8 elements: e, r, r^2, r^3, s, rs,
# r^2 s, r^3 s.  Z4 elements: 0, 1, 2, 3 under addition mod 4.

Q8_TABLE = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 1, 0, 6, 7, 5, 4),
    (3, 2, 0, 1, 7, 6, 4, 5),
    (4, 5, 7, 6, 1, 0, 2, 3),
    (5, 4, 6, 7, 0, 1, 3, 2),
    (6, 7, 4, 5, 3, 2, 1, 0),
    (7, 6, 5, 4, 2, 3, 0, 1),
)

D8_TABLE = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 2, 3, 0, 5, 6, 7, 4),
    (2, 3, 0, 1, 6, 7, 4, 5),
    (3, 0, 1, 2, 7, 4, 5, 6),
    (4, 7, 6, 5, 0, 3, 2, 1),
    (5, 4, 7, 6, 1, 0, 3, 2),
    (6, 5, 4, 7, 2, 1, 0, 3),
    (7, 6, 5, 4, 3, 2, 1, 0),
)

Z4_TABLE = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))

# -- isomorphism oracle on the group law ------------------------------------------


class TableGroup:
    """A finite 2-group given by its multiplication table on range(order).

    Raises ValueError unless the order is a power of 2, every row and every
    column permutes range(order), and the law is associative over all
    order^3 triples.  An associative Latin square is a group; rows alone do
    not suffice, since x * y = y is associative with every row the identity.
    """

    def __init__(self, table):
        self.table = t = tuple(tuple(row) for row in table)
        self.order = n = len(t)
        # 0 & -1 == 0, so the empty table needs its own test.
        if not n or n & (n - 1):
            raise ValueError("table groups must have 2-power order")
        if any(sorted(line) != list(range(n)) for line in t + tuple(zip(*t))):
            raise ValueError("table rows and columns must permute range(order)")
        triples = product(range(n), repeat=3)
        if any(t[t[x][y]][z] != t[x][t[y][z]] for x, y, z in triples):
            raise ValueError("table law is not associative")

    def pmul(self, x: int, y: int) -> int:
        return self.table[x][y]


class _Law:
    """The invariants ``iso_oracle`` compares, read through a group's ``pmul``
    alone.  Each is computed on first use, so a pair that the order census
    rejects never pays for Phi, and one that the Frattini order rejects
    never pays for the basis."""

    def __init__(self, g):
        self.order = g.order
        self.pmul = g.pmul

    @cached_property
    def squares(self) -> tuple[int, ...]:
        pmul = self.pmul
        return tuple(pmul(x, x) for x in range(self.order))

    @cached_property
    def identity(self) -> int:
        """The one idempotent: x * x = x forces x = 1 in a group."""
        return next(x for x, s in enumerate(self.squares) if s == x)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """By repeated squaring: in a 2-group the order of x is the first 2^k
        with x^(2^k) = 1."""
        sq, e = self.squares, self.identity
        orders = []
        for x in range(self.order):
            o = 1
            while x != e:
                x, o = sq[x], 2 * o
            orders.append(o)
        return tuple(orders)

    @cached_property
    def frattini(self) -> frozenset[int]:
        """Phi(G) = <x^2 : x in G>.  G/<G^2> has exponent 2, so it is abelian
        and <G^2> contains [G, G]: for a 2-group this is the Frattini
        subgroup G^2 [G, G]."""
        pmul = self.pmul
        squares = set(self.squares)
        phi = {self.identity}
        frontier = [self.identity]
        while frontier:
            y = frontier.pop()
            for s in squares:
                z = pmul(y, s)
                if z not in phi:
                    phi.add(z)
                    frontier.append(z)
        return frozenset(phi)

    @cached_property
    def basis(self) -> tuple[int, ...]:
        """Greedy generators, each outside the span of Phi and the earlier ones:
        a basis of G/Phi, so they generate G (Burnside's basis theorem).  The
        span is a subgroup containing Phi, hence normal with an abelian
        exponent-2 quotient, and adding x grows it to span | span.x."""
        pmul = self.pmul
        span = set(self.frattini)
        gens: list[int] = []
        for x in range(self.order):
            if x not in span:
                gens.append(x)
                span |= {pmul(s, x) for s in span}
        return tuple(gens)


def _certify(a: _Law, b: _Law, cols1, cols2) -> tuple[list[int], list[int]] | None:
    """The lifts of cols1 in G1 and of cols2 in G2, or None unless both
    present their groups alike: each column set is a basis of GF(2)^n for
    the n elements of its law's ``basis``, so its lifts generate, and the
    forms read over the two sets of lifts are equal.  A lift is the product
    of the basis elements at its column's set bits."""
    lifts = []
    for law, cols in ((a, cols1), (b, cols2)):
        n = len(law.basis)
        # The columns as rows: rank does not change under transpose.
        if len(cols) != n or rank(BitMatrix(n, n, tuple(cols))) != n:
            return None
        pmul, ys = law.pmul, []
        for col in cols:
            y = law.identity
            for i, g in enumerate(law.basis):
                if col >> i & 1:
                    y = pmul(y, g)
            ys.append(y)
        lifts.append(ys)
    ys1, ys2 = lifts
    if _read_form(a.pmul, ys1, a.identity) != _read_form(b.pmul, ys2, b.identity):
        return None
    return ys1, ys2


def _isomorphism(g1, g2) -> tuple[list[int], list[int]] | None:
    """Generators of G1 and their images under an isomorphism G1 -> G2, or
    None; see ``iso_oracle``."""
    if g1.order != g2.order:
        return None
    if g1.order > ISO_ORACLE_ORDER_CAP:
        raise ValueError(f"isomorphism oracle capped at order {ISO_ORACLE_ORDER_CAP}")
    a, b = _Law(g1), _Law(g2)
    if Counter(a.element_orders) != Counter(b.element_orders):
        return None
    if len(a.frattini) != len(b.frattini):
        return None
    if len(a.frattini) > 2:
        raise ValueError(
            f"isomorphism oracle needs |Phi| <= 2, got |Phi| = {len(a.frattini)}"
        )
    q1 = _read_form(a.pmul, a.basis, a.identity)
    q2 = _read_form(b.pmul, b.basis, b.identity)
    if rank(q1.polar()) != rank(q2.polar()):
        return None
    lifts = _certify(a, b, _normal_basis(q1)[1], _normal_basis(q2)[1])
    if lifts is None:
        raise RuntimeError(
            "equal censuses but no isomorphism between the normal bases of "
            f"{q1.to_string()} and {q2.to_string()}"
        )
    return lifts


def iso_oracle(g1, g2) -> bool:
    """Ground truth for classify_group: is G1 isomorphic to G2?

    G1 and G2 are any groups with an ``order`` and a law ``pmul`` on
    range(order), such as a GexGroup or a TableGroup; every invariant is read
    through the law.  The census decides: an isomorphism preserves element
    orders, Phi and the center, so unequal order censuses, Frattini orders
    or center sizes give False, and for |Phi| <= 2 equal ones give True.
    |Z| = 2^(m2+1) fixes m2, |Phi| = 1 marks the elementary abelian class,
    and the elements of order at most 2 tell Plus, Minus and QOne apart.
    The center size is read off the commutator form B over the n elements
    of ``_Law.basis`` (below): for |Phi| <= 2, Phi is central, so [x, y] =
    z^B(x, y), and Z, the preimage of the radical of B, has |Phi| 2^(n -
    rank B) elements.

    Each True is proved by a certificate, the relations of a presentation
    (von Dyck's theorem).  Phi is central and G/Phi has the basis
    ``_Law.basis``, over which g^2 in Phi = GF(2) is a quadratic form whose
    polar form is the commutator.  Let y_1..y_n be the lifts in G1 of the
    witness columns of its ``_normal_basis``, and z the generator of Phi (z
    = e when Phi is trivial).  The columns have full rank, so the y_i are
    independent modulo Phi and generate G1 (Burnside's basis theorem).  So
    the group P presented on z, y_1..y_n by z^|Phi| = e, z central, y_i^2 =
    z^Q(y_i) and [y_i, y_j] = z^B(y_i, y_j) maps onto G1.  Collecting a
    word gives z^eps y^v, so |P| <= |Phi| 2^n = |G1|, and the map is an
    isomorphism.  The lifts in G2 pass the same rank check and read the same
    Q and B, so P is G2 as well: y_i -> y'_i extends to G1 ~ G2.

    Groups of different orders are told apart before any invariant is read.
    Equal orders above ISO_ORACLE_ORDER_CAP raise ValueError, as do equal
    order censuses and Frattini orders with |Phi| > 2, outside the family,
    where the commutator form does not give the center: Z4 x Z4 against
    Z4 x| Z4 (centers of 16 and 4) is refused, not told apart.  A
    certificate that fails on equal censuses raises RuntimeError naming both
    forms read over ``_Law.basis``: a defect, never a False.

    The census is the cost.  Per side it takes |G| law applications for the
    squares, |Phi| |G^2| for the Frattini closure over the set G^2 of
    squares, |G| - |Phi| for the basis and n^2 for the form read over it;
    the certificate adds one ``rank``, one law application per set bit of
    the witness columns (at most n^2) and n^2 more.  A same-class pair on
    hidden bases takes 0.013-0.016 s at dim 12 and 0.22-0.24 s at dim 16,
    one pair per class (Python 3.11, 2-core VM).
    """
    return _isomorphism(g1, g2) is not None
