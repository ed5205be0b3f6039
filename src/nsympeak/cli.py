"""Command line front end.

``COMMANDS`` states each subcommand: the help line ``nsympeak -h``
lists, the handler and the arguments.

Elements are written in the literal grammar of :mod:`nsympeak.textforms`
(for example ``"2*S[2,1] - 1/3*S[1,1,2]"`` or ``"rho[1,1,1]"``) or as
the JSON these commands emit with ``--format json``; JSON input is
recognized by its leading brace.  ``Sigma``, ``rho`` and ``T`` literals
and targets need ``--N`` to pin the root order; a ``T[K]`` literal is
read as Sigma of the inverse block image of K (T_K = Sigma_{eps^-1(K)}).

``internal`` computes the descent-algebra product from the matrix
(Mackey) formula of :mod:`nsympeak.descent`: S^I * S^J sums S^(M read
row by row) over the nonnegative integer matrices M with row sums I and
column sums J (Gelfand, Krob, Lascoux, Leclerc, Retakh and Thibon,
*Noncommutative symmetric functions*, 1995, section 5).

Exit codes: 0 success, 1 a verification check failed or a suite ran no
checks, 2 usage or parse errors, 3 the element fell outside the
requested span (NOT_MEMBER), 4 a size limit, refused before the work
through ``scalars.check_limit``: ``descent.MAX_WORD_PAIRS``,
``elements.MAX_EXPANSION_TERMS``, ``series.MAX_RECURSION_TERMS``,
``peak.MAX_MEMBERSHIP_WEIGHT``, ``compositions.MAX_WEIGHT`` or
``scalars.MAX_CONDUCTOR``, or an exact value to print with more digits
than Python converts to text (``sys.get_int_max_str_digits()``); a
request that runs out of memory (``MemoryError``) exits 4 as well.  The
README tabulates what each limit counts.

``main(argv)`` returns the exit code instead of exiting (argparse's own
usage errors and ``--help`` raise ``SystemExit``).  It may be called
repeatedly in one process.  A request that names a command is read
straight from ``COMMANDS`` (``_read_args``) when every argument takes a
shape that argparse reads alike on every supported Python: exact flags,
``--flag=value``, values that do not start with ``-`` and pass their type
and choices, each positional once.  Any other request that names a
command goes to that command's argparse parser alone, built on the first
call that needs it and reused by every later one; so argparse alone
prints help and usage errors and resolves abbreviated flags.  The root
parser serves only help, a missing or unknown command, and unrecognized
arguments.  A negative rational given to ``--q`` as its own token
(``--q -1/2``) is read as ``--q=-1/2``.

Verification scales default to the acceptance scales of the test suite;
``SUITES`` lists the flags each suite reads to override them, and any
other flag but ``--format`` is a usage error.
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from itertools import islice, product, tee

from .compositions import (
    F_set,
    G_set,
    compositions_of,
    decode,
    display_key,
    encode,
    epsilon,
    hilbert_dim,
    hilbert_dims,
    lower_codes,
    num_compositions,
    peak_compositions_of,
)
from .descent import internal_product
from .elements import (
    CapacityError, NsymElement, S, all_words, check_expansion, linear_combination,
    multiply, one,
)
from .peak import (
    PeakContext,
    T_basis,
    T_membership,
    block_series,
    classical_peak_function,
    decomp_R_on_rho_codes,
    decomp_S_on_rho_codes,
    decomp_theta_R_codes,
    decomp_theta_S_codes,
    expand_T_coords,
    expand_rho_coords,
    expand_sigma_coords,
    expansions_match,
    in_T_ideal,
    in_sigma_span,
    membership,
    pi_N,
    rho_membership,
    rho_ones_series,
    sigma_basis,
    tangent_element_series,
    tangent_zeta_element_series,
    theta_minus1_ribbon_expansion,
)
from .series import (
    Theta,
    Theta_images,
    det_formula,
    det_theta,
    psi,
    series_inverse,
    theta_q,
    theta_q_images,
    theta_q_series,
)
from .scalars import read_signed_sum, scalar_inv, scalar_to_json, scalar_to_text, zeta
from .textforms import (
    BASIS_NAMES,
    coords_to_text,
    composition_to_text,
    element_to_json,
    parse_any_element,
    terms_to_json,
)

class UsageError(ValueError):
    """Bad flags or inputs; maps to exit code 2."""


class NotMemberError(Exception):
    """The element is outside the requested span; maps to exit code 3."""


# ---------------------------------------------------------------------------
# shared plumbing


def _need_ctx(N, what):
    if N is None:
        raise UsageError(f"{what} needs --N")
    return PeakContext(N)


def _peak_basis(name):
    """(coordinates -> ribbon element, element -> coordinates or None) for
    a peak basis name; None for S, R or no name.  Built per call, not at
    import, so a wrapper rebound on peak (bench/tracer.py) runs."""
    return {
        "Sigma": (expand_sigma_coords, membership),
        "rho": (expand_rho_coords, rho_membership),
        "T": (expand_T_coords, T_membership),
    }.get(name)


def _element_from_terms(name, terms, N):
    """Build the ribbon-or-complete element a parsed literal denotes."""
    peak = _peak_basis(name)
    if peak is None:
        return NsymElement(name or "S", terms)
    return peak[0](terms, _need_ctx(N, f"a {name} literal"))


def _read_elements(N, *texts):
    """(basis name or None, element) for each input element, a literal or
    its JSON; all are parsed before any is built."""
    parsed = [parse_any_element(text, N) for text in texts]
    return [(name, _element_from_terms(name, terms, N)) for name, terms in parsed]


def _print_terms(name, terms, fmt):
    if fmt == "json":
        print(json.dumps(terms_to_json(name, terms)))
    else:
        print(coords_to_text(terms, name))
    return 0


def _print_in_basis(element, target, N, fmt):
    peak = _peak_basis(target)
    if peak is None:
        element = element.to_basis(target)
        print(json.dumps(element_to_json(element)) if fmt == "json" else element)
        return 0
    coords = peak[1](element, _need_ctx(N, f"target basis {target}"))
    if coords is None:
        raise NotMemberError(
            f"element is outside the order-{N} span (no {target} coordinates)"
        )
    return _print_terms(target, coords, fmt)


_NEGATIVE_RATIONAL = re.compile(r"-\d+(/\d+)?")


def _parse_q(text, N):
    """--q is zeta (needs --N) or one rational, [sign]digits[/digits]."""
    if text == "zeta":
        if N is None:
            raise UsageError("--q zeta needs --N for the root order")
        return zeta(N)
    try:
        (_, q, power), *more = read_signed_sum(text)
    except ValueError as exc:
        raise UsageError(f"--q takes zeta or a rational p/q: {exc}") from exc
    if more or power is not None:
        raise UsageError("--q takes zeta or a rational p/q, not a sum or a z term")
    return q


# ---------------------------------------------------------------------------
# plain subcommands


def cmd_expand(args):
    [(_, element)] = _read_elements(args.N, args.expr)
    return _print_in_basis(element, args.to, args.N, args.format)


def cmd_convert(args):
    name, terms = parse_any_element(args.expr, args.N)
    return _print_terms(name or "S", terms, args.format)


def _need_order(N):
    if N < 2:
        raise UsageError(f"--N must be >= 2, got {N}")


def cmd_hilbert(args):
    _need_order(args.N)
    if args.max_n < 0:
        raise UsageError(f"--max-n must be >= 0, got {args.max_n}")
    dims = hilbert_dims(args.max_n, args.N)
    scalar_to_text(max(dims))  # CapacityError past the digit limit
    if args.format == "json":
        print(json.dumps({"N": args.N, "max_n": args.max_n, "dims": dims}))
    else:
        print(" ".join(map(str, dims)))
    return 0


def cmd_internal(args):
    (name_a, el_a), (name_b, el_b) = _read_elements(args.N, args.expr_a, args.expr_b)
    wa = el_a.weights()
    wb = el_b.weights()
    if len(wa) > 1 or len(wb) > 1:
        raise UsageError("internal product needs homogeneous operands")
    if wa and wb and wa != wb:
        raise UsageError(f"weight mismatch: {wa[0]} vs {wb[0]}")
    product = internal_product(el_a, el_b)
    target = args.to
    if target == "auto":
        tags = [t for t in (name_a, name_b) if _peak_basis(t)]
        target = tags[0] if tags else "R"
    return _print_in_basis(product, target, args.N, args.format)


def cmd_theta(args):
    [(_, element)] = _read_elements(args.N, args.expr)
    q = _parse_q(args.q, args.N)
    basis = "S" if args.to == "S" else "R"
    if args.normalized:
        if args.q != "zeta":
            raise UsageError("--normalized applies to --q zeta")
        image = Theta(element, args.N, basis)
    else:
        image = theta_q(element, q, basis)
    return _print_in_basis(image, args.to, args.N, args.format)


def cmd_det_theta(args):
    q = _parse_q(args.q, args.N)
    det = det_theta(args.n, q)
    formula = det_formula(args.n, q)
    equal = det == formula
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "q": scalar_to_json(q),
                    "det": scalar_to_json(det),
                    "formula": scalar_to_json(formula),
                    "equal": equal,
                }
            )
        )
    else:
        print(
            f"det = {scalar_to_text(det)}\n"
            f"formula = {scalar_to_text(formula)}\n"
            f"equal: {'yes' if equal else 'NO'}"
        )
    return 0 if equal else 1


def cmd_tangent(args):
    ctx = PeakContext(args.N)
    order = args.order
    if order < 0:
        raise UsageError(f"--order must be >= 0, got {order}")
    results = {
        key: equal
        for suite in ("tangent", "sigma-lambda", "tangent-zeta")
        for key, equal, _ in _series_verdicts(suite, ctx, order, [])
    }
    ok = all(results.values())
    if args.format == "json":
        print(json.dumps({"N": args.N, "order": order, "results": results}))
    else:
        print(f"N={args.N} order={order}")
        for key, value in results.items():
            print(f"{key}: {'PASS' if value else 'FAIL'}")
    return 0 if ok else 1


def cmd_bases(args):
    _need_order(args.N)
    # Bounds the listing: F_set and G_set build only their own words, but
    # for N > n each family holds all 2^(n-1) compositions of n.
    check_expansion(num_compositions(args.n), f"listing the compositions of {args.n}")
    fam_f = sorted(F_set(args.n, args.N), key=display_key)
    fam_g = sorted(G_set(args.n, args.N), key=display_key)
    dim = hilbert_dim(args.n, args.N)
    if not (len(fam_f) == len(fam_g) == dim):
        raise RuntimeError("family sizes disagree with the dimension table")
    pairs = [(I, epsilon(I, args.N)) for I in fam_g]
    if set(K for _, K in pairs) != set(fam_f):
        raise RuntimeError("block bijection does not map G onto F")
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "N": args.N,
                    "dim": dim,
                    "F": [list(I) for I in fam_f],
                    "G": [list(I) for I in fam_g],
                    "epsilon": [
                        {"I": list(I), "K": list(K)} for I, K in pairs
                    ],
                }
            )
        )
    else:
        print(f"n={args.n} N={args.N} dim={dim}")
        print("F: " + ", ".join(composition_to_text(I) for I in fam_f))
        print("G: " + ", ".join(composition_to_text(I) for I in fam_g))
        print(
            "epsilon: "
            + ", ".join(
                f"{composition_to_text(I)} -> {composition_to_text(K)}"
                for I, K in pairs
            )
        )
    return 0


# ---------------------------------------------------------------------------
# verification suites
#
# Each suite is a generator over its checks: it yields None for a check
# that passed and a counterexample for one that failed.  cmd_verify stops
# at the first counterexample and does not resume the suite, so a yielded
# counterexample ends the suite and a note added after a suite's loops
# appears only on a pass.  The four series suites (tangent, tangent-zeta,
# sigma-lambda, rnij-series) share one loop, ``_series_suite``, over the
# identities that ``SERIES_CHECKS`` states, each once, as its two sides;
# ``cmd_tangent`` reports the first three suites' checks at one root order.


ADOPTED_READINGS = {
    "decomp-S": (
        "adopted reading: J runs over the members of G whose descent set "
        "contains D(I); a position of J is aligned when its running sum is "
        "a partial sum of I; each aligned part j contributes (1 - z^j), "
        "with a global twist z^(n - sum of aligned parts) and sign "
        "(-1)^(l(I) - l(J))"
    ),
    "decomp-R": (
        "adopted reading: J runs over all of G at the same weight (no "
        "order restriction); the z exponent adds the non-final parts of J "
        "whose running sums are not descents of I; the factor is "
        "(1 - z^(last part of J)) with sign (-1)^(l(I) - l(J))"
    ),
    "decomp-S-rho": (
        "adopted reading: J runs over the members of G whose ribbon cut "
        "along I exists and yields only hook pieces; the coefficient is "
        "(1 - z)^l(I) (-z)^h with h the total count of leading ones "
        "across the pieces"
    ),
    "decomp-R-rho": (
        "adopted reading: J contributes when its peak set sits inside the "
        "admissible positions D(I) xor (D(I) + 1); the coefficient is "
        "(1 - z)^(hook count of J) (-z)^b with b = |(1 + (D(I) - D(J))) "
        "u (D(J) - D(I))|"
    ),
}


def _suite_basis(notes, ns, max_n):
    for N in ns:
        ctx = PeakContext(N)
        images = Theta_images(all_words("S", 0, max_n), N, "S")
        for n in range(max_n + 1):
            fam = ctx._G_words(n)
            if len(fam) != hilbert_dim(n, N):
                yield f"N={N} n={n}: |G| != dimension table"
            for K in fam:
                for J in lower_codes(K, N):
                    if J in fam and J != K and J.bit_count() >= K.bit_count():
                        yield (
                            f"N={N}: triangularity broken at "
                            f"{composition_to_text(fam[J])} inside {composition_to_text(fam[K])}"
                        )
                yield None
            codes = range(1 << n >> 1, 1 << n)
            batch = (image for _, image in islice(images, len(codes)))
            for K, inside in zip(codes, in_sigma_span(batch, ctx)):
                if not inside:
                    yield f"N={N}: transform of S{composition_to_text(decode(K))} outside span"
                yield None
    notes.append(
        "independence: each Sigma uses only strictly shorter words below "
        "it, so the family is triangular with unit diagonal"
    )


def _suite_product(notes, ns, max_n):
    for N in ns:
        ctx = PeakContext(N)
        sigma = {I: sigma_basis(I, ctx) for n in range(max_n + 1) for I in ctx.G(n)}
        for total in range(max_n + 1):
            for a in range(total + 1):
                for I in ctx.G(a):
                    for J in ctx.G(total - a):
                        if multiply(sigma[I], sigma[J]) != sigma[I + J]:
                            yield (
                                f"N={N} I={composition_to_text(I)} "
                                f"J={composition_to_text(J)}"
                            )
                        yield None
        for n in range(max_n + 1):
            for I in ctx.G(n):
                if T_basis(epsilon(I, N), ctx) != sigma[I]:
                    yield f"N={N} I={composition_to_text(I)}: T identity"
                yield None


def _suite_projector(notes, ns, max_n):
    for N in ns:
        ctx = PeakContext(N)
        for n in range(max_n + 1):
            words = compositions_of(n)
            # Each image is read beside its answer, so the tee holds at
            # most the one stack that in_sigma_span has read ahead.
            images, batch = tee(pi_N(NsymElement("S", {K: 1}), ctx) for K in words)
            for K, image, inside in zip(words, images, in_sigma_span(batch, ctx)):
                name = f"N={N} K={composition_to_text(K)}"
                if pi_N(image, ctx) != image:
                    yield f"{name}: not idempotent"
                if not inside:
                    yield f"{name}: image not in span"
                if ctx.in_G(K) and image != sigma_basis(K, ctx):
                    yield f"{name}: wrong fixed image"
                yield None


def _suite_morphism(notes, ns, max_n):
    """pi_N(S^I S^J) = pi_N(S^I) pi_N(S^J) for S^I in the ideal (the left
    factor's last part not divisible by N), one check per root order over
    every pair of total weight <= max_n, in (total, a, I, J) order; the
    first failing pair is the counterexample.  The first pair outside
    the ideal where the equality fails becomes a note, evidence that the
    hypothesis is needed.

    S^I S^J is the word S^(I.J) by definition, so the left side is the
    image of I.J, read from the images of every word of weight <= max_n
    (one pi_N each); the right side is one product of two images.
    """
    if max_n < 1:
        return  # no pair with its left factor in the ideal
    for N in ns:
        ctx = PeakContext(N)
        images = {I: pi_N(NsymElement("S", {I: 1}), ctx)
                  for n in range(max_n + 1) for I in compositions_of(n)}
        outside = None
        for total in range(max_n + 1):
            for a in range(total + 1):
                for I, J in product(compositions_of(a), compositions_of(total - a)):
                    in_ideal = bool(I) and I[-1] % N != 0
                    if not (in_ideal or outside is None):
                        continue  # past the first failure outside, only pairs inside count
                    if images[I + J] != multiply(images[I], images[J]):
                        if in_ideal:
                            yield f"N={N} I={composition_to_text(I)} J={composition_to_text(J)}"
                        else:
                            outside = I, J
        del images  # let go before the next order's images are built
        yield None
        if outside is not None:
            I, J = outside
            notes.append(
                f"N={N}: dropping the ideal hypothesis fails first at "
                f"I={composition_to_text(I)}, J={composition_to_text(J)} "
                "(hypothesis necessary)"
            )


def _suite_ideal(notes, ns, max_n):
    for N in ns:
        ctx = PeakContext(N)
        for n in range(1, max_n + 1):
            for I in ctx.G(n):
                if not in_T_ideal(sigma_basis(I, ctx), N):
                    yield f"N={N} I={composition_to_text(I)}"
                yield None


def _decomp_suite(kind):
    """The checks of one closed decomposition: for every word I of
    weight <= max_n, S^I or R_I, the formula's coordinates expand to the
    transform of the word at q = zeta_N.

    Every word is checked in one call of ``expansions_match``, which
    cuts the pairs into stacks: a word's coordinates, on the codes of G,
    and its transform image, in the word's own basis (S images are
    sparse in S), share one segment, and the word fails exactly when
    that segment does not cancel.
    """
    # The functions are looked up when the suite runs, not when SUITES is
    # built, so a wrapper rebound on their module (bench/tracer.py) runs.
    def checks(notes, ns, max_n):
        formula, basis, family = {
            "decomp-S": (decomp_theta_S_codes, "S", "Sigma"),
            "decomp-R": (decomp_theta_R_codes, "R", "Sigma"),
            "decomp-S-rho": (decomp_S_on_rho_codes, "S", "rho"),
            "decomp-R-rho": (decomp_R_on_rho_codes, "R", "rho"),
        }[kind]
        notes.append(ADOPTED_READINGS[kind])
        for N in ns:
            ctx = PeakContext(N)
            images = theta_q_images(all_words(basis, 0, max_n), ctx.zeta, basis)
            pairs = ((formula(I, ctx), image) for I, image in images)
            # The words' codes run from 0 up, so each answer's index is
            # its word's code.
            for I, match in enumerate(expansions_match(pairs, family, ctx)):
                if not match:
                    yield f"N={N} I={composition_to_text(decode(I))}"
                yield None

    return checks


def _tangent_checks(ctx, order, notes):
    """(1 - t)^(-1) = the sum of (-1)^n rho_(1^n), t the alternating sum
    of the block generators."""
    lhs = series_inverse(one("R") - tangent_element_series(ctx, order), order)
    yield "geometric-inverse", lhs, rho_ones_series(ctx, order), f"N={ctx.N} order={order}"


def _sigma_lambda_checks(ctx, order, notes):
    """sigma_N lambda_N = 1: sigma_N = 1 - t has the block generators with
    sign (-1)^i in degree N*i+j, lambda_N has (-1)^n rho_(1^n) in degree
    n.  Their product, in this order, telescopes to 1; this is the sign
    normalization under which the stated product identity holds."""
    sigma = one("R") - tangent_element_series(ctx, order)
    lhs = multiply(sigma, rho_ones_series(ctx, order), order)
    yield "sigma-lambda", lhs, one(), f"N={ctx.N} order={order}"


def _tangent_zeta_checks(ctx, order, notes):
    """The root-of-unity deformation: the inverse of 1 - t_zeta is the
    plain sum of rho_(1^n)(zeta) (sign-free: expanding the geometric
    series gives every K in G the coefficient zeta^(|K| - l(K)), which is
    the sign-free rho deformation at zeta).  At N = 2 the deformed
    element is minus the plain one."""
    t_zeta = tangent_zeta_element_series(ctx, order)
    yield ("root-deformed", series_inverse(one("R") - t_zeta, order),
           rho_ones_series(ctx, order, ctx.zeta), f"N={ctx.N} order={order}")
    if ctx.N == 2:
        yield ("order-2-specialization", t_zeta, -tangent_element_series(ctx, order),
               "N=2: deformed element is not minus the plain one")
        notes.append("N=2: the deformation reproduces the classical signed case")


def _rnij_checks(ctx, order, notes):
    """The generating series of the single-block ribbons, two identities
    for each j in [1, N - 1]: the alternating series of R_(N^m j)
    z^(m N + j) is the inverse of the degree-multiple-of-N complete series
    times the degree-congruent-to-j complete series; and one plus the
    sum of those block series over all j, which is sigma_N = 1 - t,
    inverts to the elementary series at -z times the multiple-of-N
    complete series.  The second identity and the first's inverse do not
    depend on j, so each is built once, after the block series 1 - t."""
    N = ctx.N
    sigma = one("R") - tangent_element_series(ctx, order)
    multiples = NsymElement("S", {(d,) if d else (): 1 for d in range(0, order + 1, N)})
    lam = NsymElement("R", {(1,) * d: -1 if d % 2 else 1 for d in range(order + 1)})
    second = series_inverse(sigma, order), multiply(lam, multiples, order)
    inverse = series_inverse(multiples, order)
    for j in range(1, N):
        block = block_series(ctx, order, lambda i, _: -1 if i % 2 else 1, (j,))
        congruent = NsymElement("S", {(d,): 1 for d in range(j, order + 1, N)})
        yield None, block, multiply(inverse, congruent, order), f"N={N} j={j}: single-block series"
        yield None, *second, f"N={N} j={j}: inverse product series"


# The series identities on the block ribbons R_(N^i j) at one root order,
# each stated once, as its two sides: suite: checks(ctx, order, notes),
# yielding for each identity the key that `nsympeak tangent` reports it
# under (None for one it does not report), the left side, the right side
# and the counterexample; ``_series_verdicts`` compares the sides for
# ``_series_suite`` and ``cmd_tangent``.  Each entry builds a block
# series (``block_series``) before any product or inverse, so an order
# past the expansion limit is refused first.  The builders are looked up
# when a check runs, so a wrapper rebound on this module (bench/tracer.py)
# runs.
SERIES_CHECKS = {
    "tangent": _tangent_checks,
    "sigma-lambda": _sigma_lambda_checks,
    "tangent-zeta": _tangent_zeta_checks,
    "rnij-series": _rnij_checks,
}


def _series_verdicts(kind, ctx, order, notes):
    """(key, whether the two sides are equal, counterexample) for each
    check of one ``SERIES_CHECKS`` entry.  The sides are let go once
    compared, so no check's sides are held while the next check, or the
    next root order's, builds its own."""
    for key, lhs, rhs, counterexample in SERIES_CHECKS[kind](ctx, order, notes):
        equal = lhs == rhs
        del lhs, rhs
        yield key, equal, counterexample


def _series_suite(kind):
    """The checks of one ``SERIES_CHECKS`` entry at each root order."""

    def checks(notes, ns, order):
        if order <= 0:
            return  # both sides are the constant series 1, or no terms
        for N in ns:
            for _, equal, counterexample in _series_verdicts(kind, PeakContext(N), order, notes):
                yield None if equal else counterexample

    return checks


def _suite_det(notes, N, n, max_n, q):
    if N is not None and q != "zeta":
        raise UsageError("verify det does not take --N without --q zeta")
    ns = [n] if n is not None else range(1, max_n + 1)
    if q is not None:
        qs = [_parse_q(q, N)]
    else:
        qs = [2, Fraction(1, 2), -3, Fraction(5, 7)]
    for n in ns:
        for value in qs:
            if det_theta(n, value) != det_formula(n, value):
                yield f"n={n} q={scalar_to_text(value)}"
            yield None
    if q is None:
        for N in (2, 3):
            for n in ns:
                if not N <= n:
                    continue
                if det_theta(n, zeta(N)) != 0:
                    yield f"n={n} root order {N}: determinant not zero"
                yield None


def _suite_theta1_psi(notes, ns, max_n):
    if max_n < 0:  # no weight to compare, as in every other suite
        return
    for n in range(1, max_n + 1):
        if Theta(S(n), 1) != psi(n):
            yield f"n={n}: normalized transform at 1 is not psi"
        yield None
    for N in ns:
        z = PeakContext(N).zeta  # N < 2 is refused here
        gens = theta_q_series(z, max_n).scale(scalar_inv(1 - z))
        for n in range(1, max_n + 1):
            if Theta(S(n), N) != gens.homogeneous_component(n):
                yield f"N={N} n={n}: hook expansion"
            yield None
    star_max = 6
    for q in (2, Fraction(1, 2)):
        # The series truncated at star_max holds the generator image of
        # S_n in every degree n up to it.
        gens = theta_q_series(q, star_max)
        images = theta_q_images(all_words("S", 1, star_max), q, "R")
        for n in range(1, star_max + 1):
            gen = gens.homogeneous_component(n)
            for I, (_, image) in zip(compositions_of(n), images):
                star = internal_product(NsymElement("S", {I: 1}), gen)
                if image != star:
                    yield f"q={q} I={composition_to_text(I)}: star identity"
                yield None


def _suite_peak_classical(notes, max_n):
    ctx = PeakContext(2)
    for n in range(max_n + 1):
        reps = peak_compositions_of(n)
        if len(reps) != hilbert_dim(n, 2):
            yield f"n={n}: peak count != dimension"
        # Each ribbon J of Pi_I must have peak set D(I): the descents of J
        # that neither follow a descent nor sit at 1. So no two peak
        # functions of a weight share a ribbon.
        top = 1 << n >> 1
        pks, batch = tee(map(classical_peak_function, reps))
        for I, pk, inside in zip(reps, pks, in_sigma_span(batch, ctx)):
            name = f"n={n} I={composition_to_text(I)}"
            if not pk:
                yield f"{name}: empty peak function"
            peaks = encode(I) ^ top
            if any((d := J ^ top) & ~(d << 1 | 1) != peaks for J in pk.to_basis("R").codes):
                yield f"{name}: ribbon with another peak set"
            if not inside:
                yield f"{name}: peak function outside"
            yield None
    exp_max = min(max_n, 7)
    # Few peak functions recur across the expansions: each is built once.
    peak_function = functools.cache(classical_peak_function)
    for code, want in theta_q_images(all_words("R", 0, exp_max), -1, "R"):
        I = decode(code)
        got = linear_combination(
            "R",
            (
                (peak_function(J), c)
                for J, c in theta_minus1_ribbon_expansion(I).items()
            ),
        )
        if got != want:
            yield f"I={composition_to_text(I)}: expansion mismatch"
        yield None


# name: (checks, default root orders, {flag it reads: default scale}).
# A suite with root orders also reads --N, which runs that order alone;
# the others fix their orders themselves.  Any other flag but --format
# is refused.
SUITES = {
    "basis": (_suite_basis, (2, 3, 4), {"max_n": 8}),
    "product": (_suite_product, (2, 3, 4), {"max_n": 8}),
    "projector": (_suite_projector, (2, 3), {"max_n": 7}),
    "morphism": (_suite_morphism, (2, 3), {"max_n": 7}),
    "ideal": (_suite_ideal, (2, 3), {"max_n": 7}),
    **{
        kind: (_decomp_suite(kind), (2, 3, 4), {"max_n": 6})
        for kind in ADOPTED_READINGS
    },
    "tangent": (_series_suite("tangent"), (2, 3, 4), {"order": 8}),
    "tangent-zeta": (_series_suite("tangent-zeta"), (2, 3, 4), {"order": 8}),
    "sigma-lambda": (_series_suite("sigma-lambda"), (2, 3, 4), {"order": 8}),
    "det": (_suite_det, (), {"N": None, "n": None, "max_n": 5, "q": None}),
    "theta1-psi": (_suite_theta1_psi, (2, 3, 4), {"max_n": 10}),
    "peak-classical": (_suite_peak_classical, (), {"max_n": 8}),
    "rnij-series": (_series_suite("rnij-series"), (2, 3), {"order": 9}),
}


def cmd_verify(args):
    if args.suite not in SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from "
            + ", ".join(sorted(SUITES))
        )
    suite, roots, defaults = SUITES[args.suite]
    scales = {}
    for flag in ("N", "n", "max_n", "q", "order"):
        value = getattr(args, flag)
        if flag == "N" and roots:
            scales["ns"] = roots if value is None else (value,)
        elif flag in defaults:
            scales[flag] = defaults[flag] if value is None else value
        elif value is not None:
            flag = flag.replace("_", "-")
            raise UsageError(f"verify {args.suite} does not take --{flag}")
    notes, checks, counterexample = [], 0, None
    for counterexample in suite(notes, **scales):
        if counterexample is not None:
            break
        checks += 1
    if checks == 0 and counterexample is None:
        counterexample = "no checks ran at these scales"
    passed = counterexample is None
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "pass": passed,
                    "checks": checks,
                    "counterexample": counterexample,
                    "notes": notes,
                }
            )
        )
    else:
        for note in notes:
            print(f"verify {args.suite}: {note}")
        print(f"verify {args.suite}: {checks} checks")
        if counterexample is not None:
            print(f"verify {args.suite}: counterexample: {counterexample}")
        print(f"verify {args.suite}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser wiring


def _arg(*flags, **keywords):
    """One argument of a command, as add_argument takes it."""
    return flags, keywords


_EXPR = _arg("expr")
_TO = _arg("--to", default="R", choices=BASIS_NAMES)
_Q = _arg("--q", required=True, help='a rational or "zeta"')
_PEAK_N = _arg("--N", type=int, help="root order for peak bases")

# Last on every command, so each one's usage line ends with it.
_FORMAT = _arg("--format", choices=("text", "json"), default="text")

# name: (the help line the root parser lists, the handler, the arguments
# in usage order); every command takes _FORMAT after them.
COMMANDS = {
    "expand": ("rewrite an element in a chosen basis", cmd_expand, [_EXPR, _TO, _PEAK_N]),
    "convert": ("reprint an element (text or JSON)", cmd_convert, [_EXPR, _PEAK_N]),
    "hilbert": ("dimension table for one root order", cmd_hilbert, [
        _arg("--N", type=int, required=True), _arg("--max-n", type=int, default=12)]),
    "verify": ("run a named property sweep", cmd_verify, [
        _arg("suite"), _arg("--N", type=int), _arg("--n", type=int),
        _arg("--max-n", type=int), _arg("--q"), _arg("--order", type=int)]),
    "internal": ("internal product of two homogeneous elements", cmd_internal, [
        _arg("expr_a"), _arg("expr_b"),
        _arg("--to", default="auto", choices=("auto", *BASIS_NAMES)), _PEAK_N]),
    "theta": ("apply the one-parameter transform", cmd_theta, [
        _EXPR, _Q,
        _arg("--normalized", action="store_true", help="divide each generator image by 1 - zeta"),
        _TO, _PEAK_N]),
    "det-theta": ("transform determinant vs the closed formula", cmd_det_theta, [
        _arg("--n", type=int, required=True), _Q, _PEAK_N]),
    "tangent": ("tangent-series identity report for one root order", cmd_tangent, [
        _arg("--N", type=int, required=True), _arg("--order", type=int, default=8)]),
    "bases": ("index families and the block bijection at one weight", cmd_bases, [
        _arg("--n", type=int, required=True), _arg("--N", type=int, required=True)]),
}


@functools.cache
def build_parser(command=None):
    """The parser of one command (``nsympeak expand`` and so on), or with
    no command the root parser; each is built on the first call that asks
    for it and returned again to every later one in the process.

    ``main`` asks a command's parser only for the argvs ``_read_args``
    declines: help, abbreviated flags, usage errors and any shape argparse
    might read otherwise, so a process that sends only plain requests
    builds no parser.  Both read each command's arguments from
    ``COMMANDS`` and ``_FORMAT``.  The root parser's subcommands are the
    commands' own parsers, so a process builds each at most once.  The
    parsers are shared: callers must not mutate them (add arguments, set
    defaults).  The handlers they and ``_read_args`` record are the
    ``cmd_*`` functions ``COMMANDS`` took at import, so a wrapper rebound
    on this module later (bench/tracer.py) is not the one a request runs.
    The tracer loses nothing by it: its named counters count no ``cmd_*``
    function, and a call from cli into cli opens no span.
    """
    if command is None:
        parser = argparse.ArgumentParser(
            prog="nsympeak",
            description="higher-order peak algebras inside noncommutative "
            "symmetric functions",
        )
        # add_parser asks its parser class for prog="nsympeak <name>".
        sub = parser.add_subparsers(
            dest="command",
            required=True,
            parser_class=lambda prog: build_parser(prog.split()[1]),
        )
        for name, (summary, _, _) in COMMANDS.items():
            sub.add_parser(name, help=summary)
        return parser
    _, handler, arguments = COMMANDS[command]
    p = argparse.ArgumentParser(prog=f"nsympeak {command}")
    for flags, keywords in (*arguments, _FORMAT):
        p.add_argument(*flags, **keywords)
    p.set_defaults(handler=handler)
    return p


def _read_args(command, *tokens):
    """The namespace ``build_parser(command)`` makes of ``tokens``, read
    from ``COMMANDS`` alone, or None for any argv that argparse might read
    otherwise on some Python version, or refuses.

    Read: exact flags and ``--flag=value``; a ``store_true`` flag without
    ``=``; values that do not start with ``-``, that convert by their
    ``type`` and lie in their ``choices``; each positional once and in
    order, options between them allowed; every required option; a
    repeated flag's last value.  Declined: every other token that starts
    with ``-`` (``-h``, ``--``, a prefix of a flag, a negative number),
    ``=`` on a ``store_true`` flag, a failed conversion or choice, and a
    missing or extra argument.
    """
    _, handler, arguments = COMMANDS[command]
    options, positionals, values = {}, [], {}
    for (name,), keywords in (*arguments, _FORMAT):
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")  # as argparse: --max-n -> max_n
            options[name] = dest, keywords
        else:
            dest = name
            positionals.append((dest, keywords))
        values[dest] = keywords.get("default", False if "action" in keywords else None)
    missing = {name for name, (_, keywords) in options.items() if keywords.get("required")}
    given, read = [], []  # positional texts; (dest, keywords, text) of options
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        name, eq, text = token.partition("=")
        if name not in options:
            return None
        dest, keywords = options[name]
        missing.discard(name)
        if "action" in keywords:  # store_true
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            text = next(tokens, "-")  # a flag at the end lacks its value
            if text.startswith("-"):
                return None
        read.append((dest, keywords, text))
    if missing or len(given) != len(positionals):
        return None
    for dest, keywords, text in read + [(*pos, text) for pos, text in zip(positionals, given)]:
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[dest] = value
    return argparse.Namespace(**values, handler=handler)


def _joined_q(argv):
    """argv with each ``--q`` and a negative rational after it joined as
    ``--q=-1/2``: argparse takes a -1/2 after it for an option."""
    argv = list(argv)
    if "--q" in argv:
        for i in range(len(argv) - 1, 0, -1):
            if argv[i - 1] == "--q" and _NEGATIVE_RATIONAL.fullmatch(argv[i]):
                argv[i - 1 : i + 1] = [f"--q={argv[i]}"]
    return argv


def _run(args):
    """Run the parsed request's handler and return its exit code."""
    try:
        return args.handler(args)
    except NotMemberError as exc:
        print("NOT_MEMBER")
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        # An admitted request that outgrows the memory fails like a
        # size limit.
        print("error: out of memory", file=sys.stderr)
        return 4
    except ValueError as exc:
        # UsageError, ElementParseError and every other input error.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    argv = _joined_q(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        args = _read_args(*argv)
        if args is None:
            # Only the named command's parser runs; what it leaves over is
            # refused as the root parser refuses it.
            args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
            if extras:
                build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = build_parser().parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
