"""References the tests compare the library with.

Each shares no code with the library path it checks, and none imports
gexforms.  Each is written from the definition, term by term, except
symplectic_pairs, which copies an algorithm because its output is a choice.
"""


def matvec_bits(m, v: int) -> int:
    """Tv for the BitMatrix T = m: bit i is the parity of row i AND v."""
    bits = 0
    for i, row in enumerate(m.data):
        bits |= ((row & v).bit_count() & 1) << i
    return bits


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


def symplectic_pairs(b) -> tuple[list[tuple[int, int]], list[int]]:
    """(pairs, radical) of the alternating BitMatrix b by the original
    bit-by-bit decomposition: B(u, w) accumulates the rows of b selected by
    u, one bit at a time.

    A bit-for-bit copy of an algorithm, not a definition: many symplectic
    bases satisfy the definition, and which pairs come out is an arbitrary
    choice (always the lowest working vector and its lowest partner).  The
    witness matrices, the CLI text and the README examples depend on that
    choice, so the library must make exactly this one.
    """
    n = b.rows

    def _parity_acc(u, v):
        acc = 0
        for i in range(n):
            if (u >> i) & 1:
                acc ^= b.data[i]
        return (acc & v).bit_count() & 1

    working = [1 << i for i in range(n)]
    pairs = []
    radical = []
    while working:
        v = working[0]
        partner = None
        for w in working[1:]:
            if _parity_acc(v, w):
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
            if _parity_acc(u, partner):
                u2 ^= v
            if _parity_acc(u, v):
                u2 ^= partner
            rest.append(u2)
        working = rest
    return pairs, radical
