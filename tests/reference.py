"""References the tests compare the library with.

Each shares no code with the library path it checks, and none imports
gexforms.  Each is written from the definition, term by term, except
symplectic_pairs, which copies an algorithm because its output is a choice.
A group is given by its order and its law ``mul`` on 0 .. order - 1.
"""


def matvec_bits(m, v: int) -> int:
    """Tv for the BitMatrix T = m: bit i is the parity of row i AND v."""
    bits = 0
    for i, row in enumerate(m.data):
        bits |= ((row & v).bit_count() & 1) << i
    return bits


def bilinear(b, u: int, v: int) -> int:
    """B(u, v) = u^T B v for the BitMatrix b: the rows of b selected by u,
    summed, then the parity of that sum AND v."""
    acc = 0
    for i, row in enumerate(b.data):
        if u >> i & 1:
            acc ^= row
    return (acc & v).bit_count() & 1


def polarization(q, u: int, v: int) -> int:
    """B_Q(u, v) = Q(u + v) + Q(u) + Q(v), from three evaluations of q."""
    return q.eval_bits(u ^ v) ^ q.eval_bits(u) ^ q.eval_bits(v)


def is_admissible_basis(q, vs) -> bool:
    """Whether vs is an admissible basis of q, from the definition: q.dim
    vectors inside GF(2)^dim, independent, with Q = 1 on each by
    ``q.eval_bits`` and a partner w in vs with B_Q(v, w) = 1 by
    ``polarization``.  Dim 0 has none, as no vector has a partner."""
    n = q.dim
    if n == 0 or len(vs) != n or any(v >> n for v in vs):
        return False
    pivots = {}  # leading bit -> a kept vector with that leading bit
    for v in vs:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if not v:
            return False
        pivots[v.bit_length()] = v
    if any(q.eval_bits(v) != 1 for v in vs):
        return False
    return all(any(polarization(q, v, w) for w in vs) for v in vs)


def greedy_admissible_basis(q):
    """The first q.dim vectors kept by a walk over v = 1 .. 2^dim - 1 in
    increasing order, or None: v is kept when Q(v) = 1 by ``q.eval_bits``,
    B_Q(e_j, v) = 1 by ``polarization`` for some j, and v is independent of
    the vectors kept so far.  The greedy walk of the admissibility oracle,
    one vector at a time."""
    n = q.dim
    basis = []
    pivots = {}  # leading bit -> a kept vector, reduced, with that leading bit
    for v in range(1, 1 << n):
        if not q.eval_bits(v):
            continue
        if not any(polarization(q, 1 << j, v) for j in range(n)):
            continue
        red = v
        while red and red.bit_length() in pivots:
            red ^= pivots[red.bit_length()]
        if red:
            pivots[red.bit_length()] = red
            basis.append(v)
            if len(basis) == n:
                return tuple(basis)
    return None


def quadratic_forms(dim: int):
    """(diag, upper) of every quadratic form on GF(2)^dim, one bit at a
    time: diag from 0 to 2^dim - 1, and for each the coefficients b_ij,
    i < j, in row-major order as the bits of one number ubits from 0 to
    2^(dim(dim-1)/2) - 1, b_01 lowest; b_ij is bit j of upper[i]."""
    positions = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    for diag in range(1 << dim):
        for ubits in range(1 << len(positions)):
            upper = [0] * dim
            for k, (i, j) in enumerate(positions):
                if ubits >> k & 1:
                    upper[i] |= 1 << j
            yield diag, tuple(upper)


def cocycle_law(q, x: int, y: int) -> int:
    """(u, eps)(v, delta) = (u + v, eps + delta + u^T M v) on the packed
    (u << 1) | eps, with M_ii = Q(e_i) from ``q.diag`` and M_ij = b_ij from
    ``q.upper`` for i < j, summed one term at a time."""
    u, v = x >> 1, y >> 1
    c = 0
    for i in range(q.dim):
        if u >> i & 1:
            c ^= q.diag >> i & v >> i & 1
            for j in range(i + 1, q.dim):
                c ^= q.upper[i] >> j & v >> j & 1
    return (u ^ v) << 1 | (x ^ y ^ c) & 1


def central_elements(order: int, mul) -> set[int]:
    """The center: every x that commutes with every y.  A y already found
    central commutes with x, so it is not tested again."""
    center = set()
    for x in range(order):
        if all(mul(x, y) == mul(y, x) for y in range(order) if y not in center):
            center.add(x)
    return center


def generated(mul, identity: int, gens) -> set[int]:
    """The subgroup gens generate: every x * g reached from the identity by
    right multiplication with a generator, breadth first.  In a finite group
    the inverse of g is a power of g, so no inverses are needed."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        layer = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    layer.append(y)
        frontier = layer
    return seen


def is_isomorphism(images, order: int, mul_a, mul_b) -> bool:
    """x -> images[x], x = 0 .. order - 1, is injective and carries mul_a
    onto mul_b: images[mul_a(x, y)] = mul_b(images[x], images[y]) for every
    x and y, all order^2 pairs."""
    elements = range(order)
    f = [images[x] for x in elements]
    return len(set(f)) == order and all(
        f[mul_a(x, y)] == mul_b(f[x], f[y]) for x in elements for y in elements
    )


def symplectic_pairs(b) -> tuple[list[tuple[int, int]], list[int]]:
    """(pairs, radical) of the alternating BitMatrix b, with each B(u, w)
    read through ``bilinear``.

    A bit-for-bit copy of an algorithm, not a definition: many symplectic
    bases satisfy the definition, and which pairs come out is an arbitrary
    choice (always the lowest working vector and its lowest partner).  The
    witness matrices, the CLI text and the README examples depend on that
    choice, so the library must make exactly this one.
    """
    working = [1 << i for i in range(b.rows)]
    pairs = []
    radical = []
    while working:
        v = working[0]
        partner = None
        for w in working[1:]:
            if bilinear(b, v, w):
                partner = w
                break
        if partner is None:
            radical.append(v)
            working = working[1:]
            continue
        pairs.append((v, partner))
        rest = []
        for u in working:
            if u in (v, partner):
                continue
            u2 = u
            if bilinear(b, u, partner):
                u2 ^= v
            if bilinear(b, u, v):
                u2 ^= partner
            rest.append(u2)
        working = rest
    return pairs, radical
