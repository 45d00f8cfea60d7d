"""Admissible quadratic forms, decided three independent ways.

A form is admissible when it has a basis of vectors that all take value 1 and
none of which is B_Q-isolated within the basis.  The fast path reads the
verdict off the classification; the constructive path builds an explicit
basis; the brute-force path searches every candidate basis and serves as the
independent oracle.
"""

from __future__ import annotations

from .f2linalg import BitMatrix, _parity, _row_image, _span, _transpose_rows
from .f2linalg import is_invertible, rank
from .quadform import FormClass, Kind, QuadraticForm, classify, normal_form_witness


def check_basis(q: QuadraticForm, vs: tuple[int, ...]) -> bool:
    """Verify all three admissible-basis invariants by direct evaluation:
    vs is a basis of packed vectors, Q = 1 on each, and each has a
    B_Q-partner among the others."""
    if len(vs) != q.dim or any(v >> q.dim for v in vs):
        return False
    if q.dim == 0:
        return False
    # The vectors as rows: rank does not change under transpose.
    if not is_invertible(BitMatrix(q.dim, q.dim, vs)):
        return False
    ev = q.eval_bits
    if any(ev(v) != 1 for v in vs):
        return False
    # Q = 1 on both, so B_Q(v, w) = Q(v + w) + Q(v) + Q(w) = Q(v + w).
    for i, v in enumerate(vs):
        if not any(ev(v ^ w) for j, w in enumerate(vs) if j != i):
            return False
    return True


def is_admissible(q: QuadraticForm) -> bool:
    """Classification-based verdict: zero summands never matter, and the
    admissible classes are exactly Plus with m1 >= 2, any Minus, and QOne
    with m1 >= 2 (the Zero class has m1 = 0)."""
    fc = classify(q)
    return fc.kind is Kind.MINUS or fc.m1 >= 2


def _standard_basis(fc: FormClass) -> list[int]:
    """The admissible basis of standard_form(fc), for an admissible class: the
    plane sums e_2i + e_2i+1, a B_Q-partner for each, e_0 + e_2m for QOne, then
    e_0 + e_1 + e_z for each zero coordinate z."""
    m = fc.m1
    vs = [3 << (2 * i) for i in range(m)]
    if fc.kind is Kind.MINUS:
        vs += [1] + [1 | (1 << (2 * k)) for k in range(1, m)]
    else:
        vs.append(1 | (3 << (2 * m - 2)))
        vs += [(3 << (2 * k - 2)) | (1 << (2 * k + 1)) for k in range(1, m)]
    if fc.kind is Kind.QONE:
        vs.append(1 | (1 << (2 * m)))
    # One vector per coordinate so far: the zero coordinates start at len(vs).
    vs += [vs[0] | (1 << z) for z in range(len(vs), fc.dim)]
    return vs


def admissible_witness(q: QuadraticForm) -> tuple[int, ...] | None:
    """A concrete admissible basis for q as packed vectors, or None.

    Builds the explicit basis for the standard representative, then pulls it
    back through the normal-form change of basis.
    """
    if not is_admissible(q):
        return None
    std = _standard_basis(classify(q))
    # Tw is the XOR of the columns of T selected by the bits of w, and each
    # standard vector w has at most three set bits.
    t = normal_form_witness(q).map
    cols = _transpose_rows(t.data, q.dim)
    return tuple(_row_image(cols, w) for w in std)


BRUTEFORCE_DIM_CAP = 6


def is_admissible_bruteforce(q: QuadraticForm) -> tuple[int, ...] | None:
    """Backtracking search for an admissible basis straight from the definition.

    Candidates are the vectors with Q = 1; the search walks increasing vector
    values while maintaining linear independence, and prunes a branch as soon
    as some chosen vector can no longer find a B_Q-partner.  Returns the
    lexicographically first basis as packed vectors, or None.  The search
    grows about 3x per added dimension, so it is capped: raises ValueError
    above BRUTEFORCE_DIM_CAP.

    The polar row images P(v) are the span table of the rows of B_Q, and
    Q(v) is read as eval_bits reads it, over the span table of ``upper``.
    Partner masks are bit-sliced: coord[b] has bit j set when candidate j
    has coordinate b, so the mask of the candidates that pair with v under
    B_Q is the row image of P(v) over coord, O(n) per candidate for k
    candidates instead of O(k).  Candidates without a partner are dropped
    until none is; the search reads the masks of that last round.
    """
    n = q.dim
    if n > BRUTEFORCE_DIM_CAP:
        raise ValueError(
            f"admissibility oracle capped at dimension {BRUTEFORCE_DIM_CAP}"
        )
    if n == 0:
        return None
    image = _span(q.polar().data)
    diag = q.diag
    # Q(0) = 0, so 0 is never a candidate.
    candidates = [v for v, u in enumerate(_span(q.upper)) if _parity((diag ^ u) & v)]

    # B_Q(v, v) = 0, so no mask has its own candidate's bit set.
    while True:
        coord = _transpose_rows(candidates, n)
        partner_masks = [_row_image(coord, image[v]) for v in candidates]
        kept = [v for v, pm in zip(candidates, partner_masks) if pm]
        if len(kept) == len(candidates):
            break
        candidates = kept
    if len(candidates) < n:
        return None

    # Candidates must span the whole space; at most 2^6 - 1 rows under the cap.
    if rank(BitMatrix(len(candidates), n, tuple(candidates))) < n:
        return None

    k = len(candidates)
    full_tail = [(1 << k) - (1 << i) for i in range(k + 1)]  # indices >= i

    chosen: list[int] = []
    echelon: list[int] = []  # reduced vectors, one pivot each

    def reduce(v: int) -> int:
        for e in echelon:
            if (v >> (e.bit_length() - 1)) & 1:
                v ^= e
        return v

    def search(start: int, chosen_mask: int, unpartnered: int) -> bool:
        depth = len(chosen)
        if depth == n:
            return unpartnered == 0
        if k - start < n - depth:
            return False
        remaining = full_tail[start]
        # every unpartnered chosen vector needs a partner still ahead
        um = unpartnered
        while um:
            i = (um & -um).bit_length() - 1
            um &= um - 1
            if not partner_masks[i] & remaining:
                return False
        for idx in range(start, k):
            v = candidates[idx]
            red = reduce(v)
            if red == 0:
                continue
            new_unpartnered = unpartnered & ~partner_masks[idx]
            if not partner_masks[idx] & chosen_mask:
                new_unpartnered |= 1 << idx
            chosen.append(idx)
            echelon.append(red)
            if search(idx + 1, chosen_mask | (1 << idx), new_unpartnered):
                return True
            chosen.pop()
            echelon.pop()
        return False

    if search(0, 0, 0):
        return tuple(candidates[i] for i in chosen)
    return None
