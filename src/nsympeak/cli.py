"""Command line front end.

Subcommands::

    expand     rewrite an element in a chosen basis
    convert    reprint an element without changing basis (text or JSON)
    hilbert    dimension table for one root order
    verify     named property sweeps with counterexample reporting
    internal   internal product of two homogeneous elements
    theta      apply the one-parameter transform to an element
    det-theta  transform determinant on one weight against the closed form
    tangent    tangent-series identity report for one root order
    bases      index families and the block bijection at one weight

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
repeatedly in one process, and it builds its parser once: the first call
builds it and every later call reuses it.  A negative rational given
to ``--q`` as its own token (``--q -1/2``) is read as ``--q=-1/2``.

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

from .compositions import (
    F_set,
    G_set,
    compositions_of,
    decode,
    display_key,
    epsilon,
    hilbert_dim,
    hilbert_dims,
    lower_set,
    num_compositions,
    peak_compositions_of,
)
from .descent import internal_product
from .elements import (
    CapacityError, NsymElement, S, all_words, check_expansion, linear_combination,
    multiply,
)
from .peak import (
    PeakContext,
    T_basis,
    T_membership,
    classical_peak_function,
    decomp_R_on_rho,
    decomp_S_on_rho,
    decomp_theta_R,
    decomp_theta_S,
    expand_T_coords,
    expand_rho_coords,
    expand_sigma_coords,
    in_T_ideal,
    in_sigma_span,
    lemma_rnij_series,
    membership,
    morphism_check,
    pi_N,
    rho_membership,
    sigma_basis,
    sigma_lambda_N,
    tangent_element_series,
    tangent_series,
    tangent_zeta_element_series,
    tangent_zeta_series,
    theta_minus1_ribbon_expansion,
)
from .series import (
    Theta,
    Theta_images,
    det_formula,
    det_theta,
    psi,
    theta_q,
    theta_q_generator,
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
    name, terms = parse_any_element(args.expr, args.N)
    element = _element_from_terms(name, terms, args.N)
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
    name_a, terms_a = parse_any_element(args.expr_a, args.N)
    name_b, terms_b = parse_any_element(args.expr_b, args.N)
    el_a = _element_from_terms(name_a, terms_a, args.N)
    el_b = _element_from_terms(name_b, terms_b, args.N)
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
    name, terms = parse_any_element(args.expr, args.N)
    element = _element_from_terms(name, terms, args.N)
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
        "geometric-inverse": tangent_series(ctx, order)[2],
        "sigma-lambda": sigma_lambda_N(ctx, order)[2],
        "root-deformed": tangent_zeta_series(ctx, order)[2],
    }
    if args.N == 2:
        results["order-2-specialization"] = _deforms_to_signed(ctx, order)
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
# appears only on a pass.


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
        images = Theta_images(all_words("S", 0, max_n), N, "R")
        for n in range(max_n + 1):
            fam = ctx.G(n)
            if len(fam) != hilbert_dim(n, N):
                yield f"N={N} n={n}: |G| != dimension table"
            members = set(fam)
            for K in fam:
                for J in lower_set(K, N):
                    if J in members and J != K and len(J) >= len(K):
                        yield (
                            f"N={N}: triangularity broken at "
                            f"{composition_to_text(J)} inside {composition_to_text(K)}"
                        )
                yield None
            # The words of weight n are the next images; zip reads the
            # list first, so it stops without taking one more image.
            words = compositions_of(n)
            batch = (image for _, (_, image) in zip(words, images))
            for K, inside in zip(words, in_sigma_span(batch, ctx)):
                if not inside:
                    yield f"N={N}: transform of S{composition_to_text(K)} outside span"
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


def _projector_images(words, ctx, failed):
    """pi_N(S^K) for each K of words, checked as it is made, so no image
    outlives its read. For a K that fails either check, failed[K] is its
    (idempotence, fixed-image) pair of messages, None for a check it
    passes."""
    for K in words:
        image = pi_N(NsymElement("S", {K: 1}), ctx)
        idempotent = pi_N(image, ctx) == image
        fixed = not ctx.in_G(K) or image == sigma_basis(K, ctx)
        if not (idempotent and fixed):
            failed[K] = (
                None if idempotent else "not idempotent",
                None if fixed else "wrong fixed image",
            )
        yield image


def _suite_projector(notes, ns, max_n):
    for N in ns:
        ctx = PeakContext(N)
        for n in range(max_n + 1):
            words, failed = compositions_of(n), {}
            inside = in_sigma_span(_projector_images(words, ctx, failed), ctx)
            for K, in_span in zip(words, inside):
                idempotence, fixed = failed.get(K, (None, None))
                span = None if in_span else "image not in span"
                for message in (idempotence, span, fixed):
                    if message:
                        yield f"N={N} K={composition_to_text(K)}: {message}"
                yield None


def _suite_morphism(notes, ns, max_n):
    if max_n < 1:
        return  # no pair with its left factor in the ideal
    for N in ns:
        ok, hypothesis_cx, failure = morphism_check(PeakContext(N), max_n)
        if not ok:
            I, J = failure
            yield f"N={N} I={composition_to_text(I)} J={composition_to_text(J)}"
        yield None
        if hypothesis_cx is not None:
            I, J = hypothesis_cx
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
    # The functions are looked up when the suite runs, not when SUITES is
    # built, so a wrapper rebound on their module (bench/tracer.py) runs.
    def checks(notes, ns, max_n):
        formula, basis, expander = {
            "decomp-S": (decomp_theta_S, "S", expand_sigma_coords),
            "decomp-R": (decomp_theta_R, "R", expand_sigma_coords),
            "decomp-S-rho": (decomp_S_on_rho, "S", expand_rho_coords),
            "decomp-R-rho": (decomp_R_on_rho, "R", expand_rho_coords),
        }[kind]
        notes.append(ADOPTED_READINGS[kind])
        for N in ns:
            ctx = PeakContext(N)
            words = all_words(basis, 0, max_n)
            for code, want in theta_q_images(words, ctx.zeta, "R"):
                I = decode(code)
                if expander(formula(I, ctx), ctx) != want:
                    yield f"N={N} I={composition_to_text(I)}"
                yield None

    return checks


def _series_suite(kind):
    """Checks a series identity's verdict (item [2]); looked up at run time."""

    def checks(notes, ns, order):
        identity = {"tangent": tangent_series, "sigma-lambda": sigma_lambda_N}[kind]
        if order <= 0:
            return  # both sides are the constant series 1, or no terms
        for N in ns:
            if not identity(PeakContext(N), order)[2]:
                yield f"N={N} order={order}"
            yield None

    return checks


def _deforms_to_signed(ctx, order):
    """At N = 2 the root-deformed tangent element is minus the plain one."""
    t = tangent_element_series(ctx, order)
    return tangent_zeta_element_series(ctx, order) == -t


def _suite_tangent_zeta(notes, ns, order):
    if order <= 0:
        return  # both sides are the constant series 1, or no terms
    for N in ns:
        ctx = PeakContext(N)
        if not tangent_zeta_series(ctx, order)[2]:
            yield f"N={N} order={order}"
        yield None
        if N == 2:
            if not _deforms_to_signed(ctx, order):
                yield "N=2: deformed element is not minus the plain one"
            yield None
            notes.append(
                "N=2: the deformation reproduces the classical signed case"
            )


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
        images = theta_q_images(all_words("S", 1, star_max), q, "R")
        for n in range(1, star_max + 1):
            gen = theta_q_generator(n, q)
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
        seen = set()
        pks = [classical_peak_function(I) for I in reps]
        for I, pk, inside in zip(reps, pks, in_sigma_span(pks, ctx)):
            if not pk:
                yield f"n={n} I={composition_to_text(I)}: empty peak function"
            support = set(pk.to_basis("R").codes)
            if support & seen:
                yield f"n={n} I={composition_to_text(I)}: supports overlap"
            seen |= support
            if not inside:
                yield f"n={n} I={composition_to_text(I)}: peak function outside"
            yield None
    exp_max = min(max_n, 7)
    for code, want in theta_q_images(all_words("R", 0, exp_max), -1, "R"):
        I = decode(code)
        got = linear_combination(
            "R",
            (
                (classical_peak_function(J), c)
                for J, c in theta_minus1_ribbon_expansion(I).items()
            ),
        )
        if got != want:
            yield f"I={composition_to_text(I)}: expansion mismatch"
        yield None


def _suite_rnij(notes, ns, order):
    if order <= 0:
        return  # both sides are the constant series 1, or no terms
    for N in ns:
        ctx = PeakContext(N)
        for j in range(1, N):
            first, second = lemma_rnij_series(ctx, j, order)
            yield None if first else f"N={N} j={j}: single-block series"
            yield None if second else f"N={N} j={j}: inverse product series"


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
    "tangent-zeta": (_suite_tangent_zeta, (2, 3, 4), {"order": 8}),
    "sigma-lambda": (_series_suite("sigma-lambda"), (2, 3, 4), {"order": 8}),
    "det": (_suite_det, (), {"N": None, "n": None, "max_n": 5, "q": None}),
    "theta1-psi": (_suite_theta1_psi, (2, 3, 4), {"max_n": 10}),
    "peak-classical": (_suite_peak_classical, (), {"max_n": 8}),
    "rnij-series": (_suite_rnij, (2, 3), {"order": 9}),
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


@functools.cache
def build_parser():
    """The command line's parser, built on the first call and returned
    again to every later one in the process.

    The parser is shared: callers must not mutate it (add arguments, set
    defaults).  It is built on first use, not at import, so the handlers
    it records are the ``cmd_*`` functions bound at that time.
    """
    parser = argparse.ArgumentParser(
        prog="nsympeak",
        description="higher-order peak algebras inside noncommutative "
        "symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--N", type=int, help="root order for peak bases")

    p = sub.add_parser("expand", help="rewrite an element in a chosen basis")
    p.add_argument("expr")
    p.add_argument("--to", default="R", choices=BASIS_NAMES)
    common(p)
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("convert", help="reprint an element (text or JSON)")
    p.add_argument("expr")
    common(p)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("hilbert", help="dimension table for one root order")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--max-n", type=int, default=12)
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("verify", help="run a named property sweep")
    p.add_argument("suite")
    p.add_argument("--N", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--q")
    p.add_argument("--order", type=int)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "internal", help="internal product of two homogeneous elements"
    )
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.add_argument("--to", default="auto", choices=("auto", *BASIS_NAMES))
    common(p)
    p.set_defaults(handler=cmd_internal)

    p = sub.add_parser("theta", help="apply the one-parameter transform")
    p.add_argument("expr")
    p.add_argument("--q", required=True, help='a rational or "zeta"')
    p.add_argument(
        "--normalized",
        action="store_true",
        help="divide each generator image by 1 - zeta",
    )
    p.add_argument("--to", default="R", choices=BASIS_NAMES)
    common(p)
    p.set_defaults(handler=cmd_theta)

    p = sub.add_parser(
        "det-theta", help="transform determinant vs the closed formula"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help='a rational or "zeta"')
    common(p)
    p.set_defaults(handler=cmd_det_theta)

    p = sub.add_parser(
        "tangent", help="tangent-series identity report for one root order"
    )
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(handler=cmd_tangent)

    p = sub.add_parser(
        "bases", help="index families and the block bijection at one weight"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(handler=cmd_bases)

    # Last on every subcommand, so each one's usage line ends with it.
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--q" in argv:  # argparse takes a -1/2 after it for an option
        for i in range(len(argv) - 1, 0, -1):
            if argv[i - 1] == "--q" and _NEGATIVE_RATIONAL.fullmatch(argv[i]):
                argv[i - 1 : i + 1] = [f"--q={argv[i]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
