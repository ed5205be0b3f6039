"""Reference helpers that only the tests use.

Each one restates something the library computes another way: the
split poset's lower sets, sums over them listed part by part and the
ribbon product rule on composition tuples (the library runs them on
integer codes), the internal product's S-word products by listing
every matrix with the given row sums (the library chooses one row at
a time and builds word codes), the canonical order from descent sets, the
covers of the order-N split poset, poset order, reverse refinement,
regluing a ribbon factorization, Sigma rebuilt from rho, the text
form of position sets, the integer zeta-columns as one dict per
column with each map run on every column alone (the library packs a
key's columns into one int and makes one pass), the {-1, 0, 1} linear
maps (S<->R, the Sigma/rho expansions and membership) with one scalar
add per term over lower sets listed part by part
(``lower_set_by_parts``), instead of packed zeta-columns summed one
descent at a time, the transform's
dense matrix on one weight with its determinant by Gaussian
elimination, the transform itself as one product of S-basis generator
images per S word, the classical peak functions by filtering every
ribbon by its peak set, the peak-set test on position sets (the
library tests descent bits), the index families F and G and the peak
compositions by filtering every composition of n, Phi_N by dividing
x^N - 1 by Phi_d for every proper divisor d, and cyclotomic numbers as
tuples of Fractions.
"""

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from nsympeak.compositions import (
    canonical_key,
    composition_from_descents,
    compositions_of,
    descent_set,
    is_in_F,
    is_in_G,
    lower_set,
    peak_set_of_composition,
)
from nsympeak.elements import NsymElement, S, add_term, multiply
from nsympeak.peak import expand_rho_coords
from nsympeak.scalars import CyclotomicNumber, euler_phi, make_cyclotomic, scalar_inv
from nsympeak.series import hook_sum, theta_q


def lower_set_by_parts(I, N=None):
    """All J below I in the order-N split poset, canonical order, built
    on tuples part by part: a part of I merges into the one before it
    when that part of I is < N (always when N is None). Each cut is a
    higher descent than the ones before it, so listing merged words
    before kept ones gives canonical order with no sort."""
    if not I:
        return [()]
    out = [(I[0],)]
    for prev, p in zip(I, I[1:]):
        kept = [J + (p,) for J in out]
        if N is None or prev < N:
            out = [J[:-1] + (J[-1] + p,) for J in out] + kept
        else:
            out = kept
    return out


def lower_sums_by_parts(values, N=None, sign=1, keep=None):
    """Sum {I: v} over order-N lower sets listed by ``lower_set_by_parts``:
    each I adds sign^(l(I)-l(J)) v to every J below it that keep accepts
    (every J when keep is None), zeros left out."""
    out = {}
    for I, v in values.items():
        for J in lower_set_by_parts(I, N):
            if keep is None or keep(J):
                out[J] = out.get(J, 0) + sign ** (len(I) - len(J)) * v
    return {J: v for J, v in out.items() if v}


def ribbon_word_product(I, J):
    """The index compositions of R_I * R_J on tuples: the concatenation
    and, when neither is the unit, J glued to the last part of I."""
    if not I:
        return [J]
    if not J:
        return [I]
    return [I + J, I[:-1] + (I[-1] + J[0],) + J[1:]]


def word_product_by_matrices(I, J):
    """S^I * S^J as {K: multiplicity} on tuples, by listing matrices: each
    row i of I is every weak composition of i into l(J) entries, every
    tuple of rows whose column sums are J is a matrix, and each matrix
    adds one to the word read row by row, zeros dropped."""
    rows = [
        [r for r in itertools.product(range(i + 1), repeat=len(J)) if sum(r) == i]
        for i in I
    ]
    out = {}
    for M in itertools.product(*rows):
        if all(sum(col) == j for col, j in zip(zip(*M), J)):
            K = tuple(x for row in M for x in row if x)
            out[K] = out.get(K, 0) + 1
    return out


def canonical_order_key(I):
    """(weight, descent bitmask) of a tuple, bit d-1 set for descent d."""
    return sum(I), sum(1 << (d - 1) for d in descent_set(I))


def split_successors(I, N):
    """Covers above I: replace one part i_k by (j, i_k - j), j in [1, N-1]."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out = set()
    for k, p in enumerate(I):
        for j in range(1, N):
            if p - j >= 1:
                out.add(I[:k] + (j, p - j) + I[k + 1:])
    return sorted(out, key=canonical_key)


def merge_predecessors(I, N):
    """Covers below I: merge an adjacent pair (j, m) with j in [1, N-1]."""
    out = set()
    for k in range(len(I) - 1):
        if 1 <= I[k] <= N - 1:
            out.add(I[:k] + (I[k] + I[k + 1],) + I[k + 2:])
    return out


def poset_leq(J, I, N):
    """True iff J <= I in the order-N split poset (I reachable from J by splits)."""
    if sum(J) != sum(I):
        raise ValueError(f"weight mismatch: {J} vs {I}")
    return tuple(J) in set(lower_set(I, N))


def reverse_refines(I, J):
    """True iff D(I) is contained in D(J), i.e. J refines I."""
    if sum(I) != sum(J):
        raise ValueError(f"weight mismatch: {I} vs {J}")
    return descent_set(I) <= descent_set(J)


def reassemble_ribbon(segments, I, J):
    """Glue ribbon_factorization(I, J) output back together into J."""
    bound = descent_set(J) | {sum(J)}
    out = list(segments[0]) if segments else []
    acc = sum(segments[0]) if segments else 0
    for seg in segments[1:]:
        if acc in bound:
            out.extend(seg)      # cut fell on a part boundary of J
        else:
            out[-1] += seg[0]    # cut split a part of J: fuse back
            out.extend(seg[1:])
        acc += sum(seg)
    return tuple(out)


def sigma_from_rho(I, ctx):
    """Rebuild Sigma_I as the sign-free sum of rho_J over J in G below I."""
    if not ctx.in_G(I):
        raise ValueError(f"{I} is not in the order-{ctx.N} index family")
    lower = lower_set_by_parts(I, ctx.N)
    return expand_rho_coords({J: Fraction(1) for J in lower if ctx.in_G(J)}, ctx)


def positions_to_text(positions):
    return "{" + ",".join(str(p) for p in sorted(positions)) + "}"


def positions_from_text(text):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"position-set text must be braced: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    try:
        return frozenset(int(p) for p in body.split(","))
    except ValueError as exc:
        raise ValueError(f"bad position-set text {text!r}") from exc


# ---------------------------------------------------------------------------
# integer zeta-columns, one dict per column


def split_columns(terms):
    """{key: scalar} as integer zeta-columns, one dict each: (N, den,
    parts), read off the public coordinates. den is the least common
    denominator of all the coordinates and parts[k] maps each key to den
    times its zeta^k coordinate, zeros left out; there are phi(N) parts,
    or one over Q. The library packs the columns of a key into one int."""
    N = None
    for c in terms.values():
        if isinstance(c, CyclotomicNumber):
            N = c.N
    coords = {
        key: c.coeffs if isinstance(c, CyclotomicNumber) else (Fraction(c),)
        for key, c in terms.items()
    }
    den = math.lcm(1, *(f.denominator for cs in coords.values() for f in cs))
    parts = [{} for _ in range(euler_phi(N) if N else 1)]
    for key, cs in coords.items():
        for part, f in zip(parts, cs):
            if f:
                part[key] = int(f * den)
    return N, den, parts


def join_columns(N, den, parts):
    """Inverse of split_columns: {key: scalar}, keys that cancelled
    dropped, each scalar rebuilt from its column by make_cyclotomic."""
    out = {}
    for key in dict.fromkeys(itertools.chain.from_iterable(parts)):
        cs = [Fraction(part.get(key, 0), den) for part in parts]
        if any(cs):
            out[key] = make_cyclotomic(N, cs) if N else cs[0]
    return out


def per_column(f, terms):
    """The map f on {key: int} dicts run on each zeta-column of terms
    on its own, the route the library replaced by one packed pass."""
    N, den, parts = split_columns(terms)
    return join_columns(N, den, [f(part) for part in parts])


# ---------------------------------------------------------------------------
# the {-1, 0, 1} linear maps, one scalar add per term


def s_to_r_per_term(F):
    """S^I = sum of R_J over J coarser than I, term by term."""
    out = {}
    for I, coeff in F.terms.items():
        for J in lower_set_by_parts(I):
            add_term(out, J, coeff)
    return NsymElement("R", out)


def r_to_s_per_term(F):
    """R_I = sum of (-1)^(l(I)-l(J)) S^J over J coarser than I."""
    out = {}
    for I, coeff in F.terms.items():
        li = len(I)
        neg = -coeff
        for J in lower_set_by_parts(I):
            add_term(out, J, neg if (li - len(J)) % 2 else coeff)
    return NsymElement("S", out)


def expand_sigma_per_term(coords, ctx):
    terms = {}
    for J, c in coords.items():
        for K in lower_set_by_parts(J, ctx.N):
            add_term(terms, K, c)
    return NsymElement("R", terms)


def expand_rho_per_term(coords, ctx):
    sig = {}
    for I, c in coords.items():
        li = len(I)
        neg = -c
        for J in lower_set_by_parts(I, ctx.N):
            if ctx.in_G(J):
                add_term(sig, J, neg if (li - len(J)) % 2 else c)
    return expand_sigma_per_term(sig, ctx)


def membership_per_term(F, ctx):
    """Peel Sigma_J off F by decreasing length of J; None if a residue stays."""
    Fr = F if F.basis == "R" else s_to_r_per_term(F)
    residual = dict(Fr.terms)
    coords = {}
    for n in Fr.weights():
        for J in sorted(ctx.G(n), key=len, reverse=True):
            c = residual.get(J)
            if not c:
                continue
            coords[J] = c
            neg = -c
            for K in lower_set_by_parts(J, ctx.N):
                add_term(residual, K, neg)
    if residual:
        return None
    return coords


def rho_membership_per_term(F, ctx):
    sig = membership_per_term(F, ctx)
    if sig is None:
        return None
    out = {}
    for I, c in sig.items():
        for J in lower_set_by_parts(I, ctx.N):
            if ctx.in_G(J):
                add_term(out, J, c)
    return out


# ---------------------------------------------------------------------------
# the transform's matrix on one weight, and the classical peak functions


def theta_by_S_words(F, q, scale):
    """The extension of S_n -> scale * hook_sum(n, q) to F, in the S basis,
    word by word: F is written in S words, and each word's image is the
    product of the S-basis generator images of its parts, seeded with the
    word's coefficient.  theta_q is scale 1 - q; Theta is scale 1 at zeta_N."""
    @functools.cache
    def generator(part):
        return hook_sum(part, q).scale(scale).to_basis("S")

    terms = {}
    for I, c in F.to_basis("S").terms.items():
        piece = NsymElement("S", {(): c})
        for part in I:
            piece = multiply(piece, generator(part))
        for K, v in piece.terms.items():
            add_term(terms, K, v)
    return NsymElement("S", terms)


TransformMatrix = namedtuple("TransformMatrix", "comps rows")


def theta_matrix(n, q):
    """The transform on weight n in the S basis: comps lists the
    compositions of n in canonical order, and rows[i][j] is the S word
    of comps[i]'s coefficient in the image of the S word of comps[j]."""
    comps = compositions_of(n)
    index = {I: i for i, I in enumerate(comps)}
    rows = [[Fraction(0)] * len(comps) for _ in comps]
    for j, I in enumerate(comps):
        for K, coeff in theta_q(S(*I), q).terms.items():
            rows[index[K]][j] = coeff
    return TransformMatrix(comps, rows)


def matrix_determinant(rows):
    """Exact determinant by Gaussian elimination over the scalar field."""
    m = [list(r) for r in rows]
    dim = len(m)
    det = Fraction(1)
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        lead = m[col][col]
        det = det * lead
        inv = scalar_inv(lead)
        for r in range(col + 1, dim):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def classical_peak_functions_filtered(n):
    """{I: Pi_I} over the peak compositions I of n, each Pi_I the sum of
    the ribbons of weight n filtered by their peak set D(I)."""
    by_peaks = {}
    for J in compositions_of(n):
        by_peaks.setdefault(peak_set_of_composition(J), {})[J] = 1
    return {
        composition_from_descents(P, n): NsymElement("R", terms)
        for P, terms in by_peaks.items()
    }


def F_set_filtered(n, N):
    return [I for I in compositions_of(n) if is_in_F(I, N)]


def G_set_filtered(n, N):
    return [I for I in compositions_of(n) if is_in_G(I, N)]


def is_valid_peak_set(peaks, n):
    """True iff ``peaks`` is the peak set of some permutation of 1..n."""
    peaks = set(peaks)
    if any(p < 2 or p > n - 1 for p in peaks):
        return False
    return all(p - 1 not in peaks for p in peaks)


def peak_compositions_filtered(n):
    return [
        I for I in compositions_of(n) if is_valid_peak_set(descent_set(I), n)
    ]


# ---------------------------------------------------------------------------
# cyclotomic numbers as Fraction tuples, over Phi_N by division


def _fold(a, p):
    """Divide the list a by the monic p in place, top degree first; a ends
    as the remainder (its first deg p entries) followed by the quotient."""
    m = len(p) - 1
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k]
        if c:
            for j in range(m):
                if p[j]:
                    a[k - m + j] -= c * p[j]


@functools.cache
def cyclotomic_polynomial_by_division(N):
    """Phi_N as ints, low degree first: x^N - 1 divided exactly by
    Phi_d for each proper divisor d of N."""
    q = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            p = cyclotomic_polynomial_by_division(d)
            m = len(p) - 1
            _fold(q, p)
            if any(q[:m]):
                raise AssertionError(f"x^{N}-1 not divisible by Phi_{d}")
            q = q[m:]
    return tuple(q)


def _fraction_demoted(N, cs):
    if not any(cs[1:]):
        return cs[0]
    x = object.__new__(FractionCyclotomic)
    x.N = N
    x.coeffs = tuple(cs)
    return x


def _fraction_reduce(N, a):
    p = cyclotomic_polynomial_by_division(N)
    d = len(p) - 1
    _fold(a, p)
    a += [Fraction(0)] * (d - len(a))
    return _fraction_demoted(N, a[:d])


def fraction_cyclotomic(N, coeffs):
    """The value of the zeta_N-polynomial coeffs, reduced and demoted."""
    return _fraction_reduce(N, [Fraction(c) for c in coeffs])


class FractionCyclotomic:
    """Q(zeta_N) as a tuple of phi(N) Fraction coefficients mod Phi_N,
    every product entry its own Fraction; a rational result is a
    Fraction."""

    __slots__ = ("N", "coeffs")

    def _coerce(self, other):
        if isinstance(other, FractionCyclotomic):
            if other.N != self.N:
                raise ValueError("conductor mismatch")
            return other.coeffs
        if isinstance(other, (int, Fraction)):
            return (Fraction(other),) + (Fraction(0),) * (len(self.coeffs) - 1)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _fraction_demoted(self.N, [a + b for a, b in zip(self.coeffs, o)])

    __radd__ = __add__

    def __neg__(self):
        return _fraction_demoted(self.N, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [Fraction(0)] * (2 * len(o) - 1)
        for i, x in enumerate(o):
            for j, y in enumerate(self.coeffs):
                prod[i + j] += x * y
        return _fraction_reduce(self.N, prod)

    __rmul__ = __mul__

    def inverse(self):
        """The other Galois conjugates' product over the norm."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        N = self.N
        others = Fraction(1)
        for k in range(2, N):
            if math.gcd(k, N) == 1:
                a = [Fraction(0)] * N
                for i, c in enumerate(self.coeffs):
                    a[i * k % N] = c
                others = _fraction_reduce(N, a) * others
        return others * (1 / (self * others))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Fraction(1)
        for _ in range(k):
            result = self * result
        return result

    def __eq__(self, other):
        if isinstance(other, FractionCyclotomic):
            return self.N == other.N and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.N, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)
