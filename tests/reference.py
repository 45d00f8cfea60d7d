"""Definition-level references the tests compare the library with.

Each is written from the definition, term by term, and shares no code with
the library path it checks.
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
