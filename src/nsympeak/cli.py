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
and targets need ``--N`` to pin the root order.

``internal`` computes the descent-algebra product from the matrix
(Mackey) formula of :mod:`nsympeak.descent`: S^I * S^J sums S^(M read
row by row) over the nonnegative integer matrices M with row sums I and
column sums J (Gelfand, Krob, Lascoux, Leclerc, Retakh and Thibon,
*Noncommutative symmetric functions*, 1995, section 5).

Exit codes: 0 success, 1 a verification check failed or a suite ran no
checks, 2 usage or parse errors, 3 the element fell outside the
requested span (NOT_MEMBER), 4 an internal product needing more S-word
pairs than ``descent.MAX_WORD_PAIRS``.

Verification scales default to the acceptance scales of the test suite;
``--N``, ``--n``, ``--max-n``, ``--q`` and ``--order`` override them.
"""

import argparse
import json
import sys
from fractions import Fraction

from .compositions import (
    F_set,
    G_set,
    compositions_of,
    display_key,
    epsilon,
    hilbert_dim,
    peak_compositions_of,
)
from .descent import internal_product
from .elements import CapacityError, NsymElement, R, S, linear_combination, multiply
from .peak import (
    PeakContext,
    T_basis,
    T_membership,
    classical_peak_function,
    decomp_R_on_rho,
    decomp_S_on_rho,
    decomp_theta_R,
    decomp_theta_S,
    expand_rho_coords,
    expand_sigma_coords,
    in_T_ideal,
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
    det_formula,
    det_theta,
    psi,
    theta_q,
    theta_q_generator,
)
from .scalars import scalar_pow, scalar_to_json, scalar_to_text, zeta
from .textforms import (
    coords_to_text,
    composition_to_text,
    parse_any_element,
    terms_to_json,
)

PEAK_BASES = ("Sigma", "rho", "T")


class UsageError(ValueError):
    """Bad flags or inputs; maps to exit code 2."""


class NotMemberError(Exception):
    """The element is outside the requested span; maps to exit code 3."""


# ---------------------------------------------------------------------------
# shared plumbing


def _fmt_comp(I):
    return composition_to_text(I)


def _need_ctx(N, what):
    if N is None:
        raise UsageError(f"{what} needs --N")
    return PeakContext(N)


def _element_from_terms(name, terms, N):
    """Build the ribbon-or-complete element a parsed literal denotes."""
    if name is None or name == "S":
        return NsymElement("S", terms)
    if name == "R":
        return NsymElement("R", terms)
    ctx = _need_ctx(N, f"a {name} literal")
    if name == "Sigma":
        return expand_sigma_coords(terms, ctx)
    if name == "rho":
        return expand_rho_coords(terms, ctx)
    return linear_combination(
        "R", ((T_basis(K, ctx), c) for K, c in terms.items())
    )


def _coords_in_basis(element, target, N):
    """Coordinates of element in a peak family, or NotMemberError."""
    ctx = _need_ctx(N, f"target basis {target}")
    as_r = element.to_basis("R")
    if len(as_r.weights()) > 1:
        raise UsageError(
            f"target basis {target} needs a homogeneous element, "
            f"weights {as_r.weights()}"
        )
    solver = {
        "Sigma": membership,
        "rho": rho_membership,
        "T": T_membership,
    }[target]
    coords = solver(as_r, ctx)
    if coords is None:
        raise NotMemberError(
            f"element is outside the order-{N} span (no {target} coordinates)"
        )
    return coords


def _print_in_basis(element, target, N, fmt):
    if target in ("S", "R"):
        out = element.to_basis(target)
        if fmt == "json":
            print(json.dumps(terms_to_json(out.basis, out.terms)))
        else:
            print(out)
        return 0
    coords = _coords_in_basis(element, target, N)
    if fmt == "json":
        print(json.dumps(terms_to_json(target, coords)))
    else:
        print(coords_to_text(coords, target))
    return 0


def _parse_q(text, N):
    if text == "zeta":
        if N is None:
            raise UsageError("--q zeta needs --N for the root order")
        return zeta(N)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r} for --q") from exc


# ---------------------------------------------------------------------------
# plain subcommands


def cmd_expand(args):
    name, terms = parse_any_element(args.expr, args.N)
    element = _element_from_terms(name, terms, args.N)
    return _print_in_basis(element, args.to, args.N, args.format)


def cmd_convert(args):
    name, terms = parse_any_element(args.expr, args.N)
    if name is None:
        name = "S"
    if args.format == "json":
        print(json.dumps(terms_to_json(name, terms)))
    else:
        print(coords_to_text(terms, name))
    return 0


def _need_order(N):
    if N < 2:
        raise UsageError(f"--N must be >= 2, got {N}")


def cmd_hilbert(args):
    _need_order(args.N)
    if args.max_n < 0:
        raise UsageError(f"--max-n must be >= 0, got {args.max_n}")
    dims = [hilbert_dim(n, args.N) for n in range(args.max_n + 1)]
    for n in range(min(args.max_n, 14) + 1):
        if len(G_set(n, args.N)) != dims[n]:
            raise RuntimeError(f"dimension table disagrees with |G| at n={n}")
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
        tags = [t for t in (name_a, name_b) if t in PEAK_BASES]
        target = tags[0] if tags else "R"
    return _print_in_basis(product, target, args.N, args.format)


def cmd_theta(args):
    name, terms = parse_any_element(args.expr, args.N)
    element = _element_from_terms(name, terms, args.N)
    if args.normalized:
        if args.q != "zeta":
            raise UsageError("--normalized applies to --q zeta")
        if args.N is None:
            raise UsageError("--q zeta needs --N for the root order")
        image = Theta(element, args.N)
    else:
        image = theta_q(element, _parse_q(args.q, args.N))
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
        print(f"det = {scalar_to_text(det)}")
        print(f"formula = {scalar_to_text(formula)}")
        print(f"equal: {'yes' if equal else 'NO'}")
    return 0 if equal else 1


def cmd_tangent(args):
    ctx = PeakContext(args.N)
    order = args.order
    results = {
        "geometric-inverse": tangent_series(ctx, order)[2],
        "sigma-lambda": sigma_lambda_N(ctx, order)[2],
        "root-deformed": tangent_zeta_series(ctx, order)[2],
    }
    if args.N == 2:
        t = tangent_element_series(ctx, order)
        tz = tangent_zeta_element_series(ctx, order)
        results["order-2-specialization"] = tz == t.scale(Fraction(-1))
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
        print("F: " + ", ".join(_fmt_comp(I) for I in fam_f))
        print("G: " + ", ".join(_fmt_comp(I) for I in fam_g))
        print(
            "epsilon: "
            + ", ".join(f"{_fmt_comp(I)} -> {_fmt_comp(K)}" for I, K in pairs)
        )
    return 0


# ---------------------------------------------------------------------------
# verification suites


class SuiteReport:
    __slots__ = ("passed", "checks", "counterexample", "notes")

    def __init__(self):
        self.passed = True
        self.checks = 0
        self.counterexample = None
        self.notes = []

    def fail(self, counterexample):
        self.passed = False
        if self.counterexample is None:
            self.counterexample = counterexample


def _ns(args, default):
    return [args.N] if args.N is not None else list(default)


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


def _suite_basis(args, report):
    max_n = args.max_n if args.max_n is not None else 8
    for N in _ns(args, (2, 3, 4)):
        ctx = PeakContext(N)
        for n in range(max_n + 1):
            fam = ctx.G(n)
            if len(fam) != hilbert_dim(n, N):
                report.fail(f"N={N} n={n}: |G| != dimension table")
                return
            members = set(fam)
            for K in fam:
                for J in ctx.lower(K):
                    if J in members and J != K and len(J) >= len(K):
                        report.fail(
                            f"N={N}: triangularity broken at "
                            f"{_fmt_comp(J)} inside {_fmt_comp(K)}"
                        )
                        return
                report.checks += 1
            for K in compositions_of(n):
                image = Theta(NsymElement("S", {K: 1}), N)
                coords = membership(image, ctx)
                if coords is None:
                    report.fail(
                        f"N={N}: transform of S{_fmt_comp(K)} outside span"
                    )
                    return
                report.checks += 1
    report.notes.append(
        "independence: each Sigma uses only strictly shorter words below "
        "it, so the family is triangular with unit diagonal"
    )


def _suite_product(args, report):
    max_w = args.max_n if args.max_n is not None else 8
    for N in _ns(args, (2, 3, 4)):
        ctx = PeakContext(N)
        for total in range(max_w + 1):
            for a in range(total + 1):
                for I in G_set(a, N):
                    si = sigma_basis(I, ctx)
                    for J in G_set(total - a, N):
                        lhs = multiply(si, sigma_basis(J, ctx))
                        if lhs != sigma_basis(I + J, ctx):
                            report.fail(
                                f"N={N} I={_fmt_comp(I)} J={_fmt_comp(J)}"
                            )
                            return
                        report.checks += 1
        for n in range(max_w + 1):
            for I in G_set(n, N):
                if T_basis(epsilon(I, N), ctx) != sigma_basis(I, ctx):
                    report.fail(f"N={N} I={_fmt_comp(I)}: T identity")
                    return
                report.checks += 1


def _suite_projector(args, report):
    max_n = args.max_n if args.max_n is not None else 7
    for N in _ns(args, (2, 3)):
        ctx = PeakContext(N)
        for n in range(max_n + 1):
            for K in compositions_of(n):
                word = NsymElement("S", {K: 1})
                image = pi_N(word, ctx)
                if pi_N(image, ctx) != image:
                    report.fail(f"N={N} K={_fmt_comp(K)}: not idempotent")
                    return
                if image and membership(image, ctx) is None:
                    report.fail(f"N={N} K={_fmt_comp(K)}: image not in span")
                    return
                if ctx.in_G(K) and image != sigma_basis(K, ctx):
                    report.fail(f"N={N} K={_fmt_comp(K)}: wrong fixed image")
                    return
                report.checks += 1


def _suite_morphism(args, report):
    max_n = args.max_n if args.max_n is not None else 7
    for N in _ns(args, (2, 3)):
        ctx = PeakContext(N)
        ok, hypothesis_cx, failure = morphism_check(ctx, max_n)
        report.checks += 1
        if not ok:
            I, J = failure
            report.fail(f"N={N} I={_fmt_comp(I)} J={_fmt_comp(J)}")
            return
        if hypothesis_cx is not None:
            I, J = hypothesis_cx
            report.notes.append(
                f"N={N}: dropping the ideal hypothesis fails first at "
                f"I={_fmt_comp(I)}, J={_fmt_comp(J)} (hypothesis necessary)"
            )


def _suite_ideal(args, report):
    max_n = args.max_n if args.max_n is not None else 7
    for N in _ns(args, (2, 3)):
        ctx = PeakContext(N)
        for n in range(1, max_n + 1):
            for I in G_set(n, N):
                if not in_T_ideal(sigma_basis(I, ctx), N):
                    report.fail(f"N={N} I={_fmt_comp(I)}")
                    return
                report.checks += 1


def _decomp_suite(kind, args, report):
    formula, base, expander = {
        "decomp-S": (decomp_theta_S, S, expand_sigma_coords),
        "decomp-R": (decomp_theta_R, R, expand_sigma_coords),
        "decomp-S-rho": (decomp_S_on_rho, S, expand_rho_coords),
        "decomp-R-rho": (decomp_R_on_rho, R, expand_rho_coords),
    }[kind]
    max_n = args.max_n if args.max_n is not None else 6
    report.notes.append(ADOPTED_READINGS[kind])
    for N in _ns(args, (2, 3, 4)):
        ctx = PeakContext(N)
        for n in range(max_n + 1):
            for I in compositions_of(n):
                coords = formula(I, ctx)
                got = expander(coords, ctx)
                oracle = theta_q(base(*I), ctx.zeta).to_basis("R")
                if got != oracle:
                    report.fail(f"N={N} I={_fmt_comp(I)}")
                    return
                report.checks += 1


def _suite_tangent(args, report):
    order = args.order if args.order is not None else 8
    for N in _ns(args, (2, 3, 4)):
        ctx = PeakContext(N)
        if not tangent_series(ctx, order)[2]:
            report.fail(f"N={N} order={order}")
            return
        report.checks += 1


def _suite_sigma_lambda(args, report):
    order = args.order if args.order is not None else 8
    for N in _ns(args, (2, 3, 4)):
        ctx = PeakContext(N)
        if not sigma_lambda_N(ctx, order)[2]:
            report.fail(f"N={N} order={order}")
            return
        report.checks += 1


def _suite_tangent_zeta(args, report):
    order = args.order if args.order is not None else 8
    for N in _ns(args, (2, 3, 4)):
        ctx = PeakContext(N)
        if not tangent_zeta_series(ctx, order)[2]:
            report.fail(f"N={N} order={order}")
            return
        report.checks += 1
        if N == 2:
            t = tangent_element_series(ctx, order)
            tz = tangent_zeta_element_series(ctx, order)
            if tz != t.scale(Fraction(-1)):
                report.fail("N=2: deformed element is not minus the plain one")
                return
            report.checks += 1
            report.notes.append(
                "N=2: the deformation reproduces the classical signed case"
            )


def _suite_det(args, report):
    max_n = args.max_n if args.max_n is not None else 5
    ns = [args.n] if args.n is not None else list(range(1, max_n + 1))
    if args.q is not None:
        qs = [_parse_q(args.q, args.N)]
    else:
        qs = [Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(5, 7)]
    for n in ns:
        for q in qs:
            if det_theta(n, q) != det_formula(n, q):
                report.fail(f"n={n} q={scalar_to_text(q)}")
                return
            report.checks += 1
    if args.q is None:
        for N in (2, 3):
            for n in ns:
                if not N <= n:
                    continue
                if det_theta(n, zeta(N)) != 0:
                    report.fail(f"n={n} root order {N}: determinant not zero")
                    return
                report.checks += 1


def _suite_theta1_psi(args, report):
    max_n = args.max_n if args.max_n is not None else 10
    for n in range(1, max_n + 1):
        if Theta(S(n), 1) != psi(n):
            report.fail(f"n={n}: normalized transform at 1 is not psi")
            return
        report.checks += 1
    for N in _ns(args, (2, 3, 4)):
        ctx = PeakContext(N)
        for n in range(1, max_n + 1):
            hooks = NsymElement(
                "R",
                {
                    (1,) * i + (n - i,): scalar_pow(-ctx.zeta, i)
                    for i in range(n)
                },
            )
            if Theta(S(n), N).to_basis("R") != hooks:
                report.fail(f"N={N} n={n}: hook expansion")
                return
            report.checks += 1
    star_max = 6
    for q in (Fraction(2), Fraction(1, 2)):
        for n in range(1, star_max + 1):
            gen = theta_q_generator(n, q)
            for I in compositions_of(n):
                word = NsymElement("S", {I: 1})
                star = internal_product(word, gen)
                if theta_q(word, q) != star:
                    report.fail(f"q={q} I={_fmt_comp(I)}: star identity")
                    return
                report.checks += 1


def _suite_peak_classical(args, report):
    ctx = PeakContext(2)
    max_n = args.max_n if args.max_n is not None else 8
    for n in range(max_n + 1):
        reps = peak_compositions_of(n)
        if len(reps) != hilbert_dim(n, 2):
            report.fail(f"n={n}: peak count != dimension")
            return
        seen = set()
        for I in reps:
            pk = classical_peak_function(I)
            if not pk:
                report.fail(f"n={n} I={_fmt_comp(I)}: empty peak function")
                return
            support = set(pk.to_basis("R").terms)
            if support & seen:
                report.fail(f"n={n} I={_fmt_comp(I)}: supports overlap")
                return
            seen |= support
            if membership(pk, ctx) is None:
                report.fail(f"n={n} I={_fmt_comp(I)}: peak function outside")
                return
            report.checks += 1
    exp_max = min(max_n, 7)
    for n in range(exp_max + 1):
        for I in compositions_of(n):
            want = theta_q(R(*I), Fraction(-1))
            got = linear_combination(
                "R",
                (
                    (classical_peak_function(J), c)
                    for J, c in theta_minus1_ribbon_expansion(I).items()
                ),
            )
            if got != want:
                report.fail(f"I={_fmt_comp(I)}: expansion mismatch")
                return
            report.checks += 1


def _suite_rnij(args, report):
    order = args.order if args.order is not None else 9
    for N in _ns(args, (2, 3)):
        ctx = PeakContext(N)
        for j in range(1, N):
            first, second = lemma_rnij_series(ctx, j, order)
            if not first:
                report.fail(f"N={N} j={j}: single-block series")
                return
            if not second:
                report.fail(f"N={N} j={j}: inverse product series")
                return
            report.checks += 2


SUITES = {
    "basis": _suite_basis,
    "product": _suite_product,
    "projector": _suite_projector,
    "morphism": _suite_morphism,
    "ideal": _suite_ideal,
    "decomp-S": lambda a, r: _decomp_suite("decomp-S", a, r),
    "decomp-R": lambda a, r: _decomp_suite("decomp-R", a, r),
    "decomp-S-rho": lambda a, r: _decomp_suite("decomp-S-rho", a, r),
    "decomp-R-rho": lambda a, r: _decomp_suite("decomp-R-rho", a, r),
    "tangent": _suite_tangent,
    "tangent-zeta": _suite_tangent_zeta,
    "sigma-lambda": _suite_sigma_lambda,
    "det": _suite_det,
    "theta1-psi": _suite_theta1_psi,
    "peak-classical": _suite_peak_classical,
    "rnij-series": _suite_rnij,
}


def cmd_verify(args):
    runner = SUITES.get(args.suite)
    if runner is None:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from "
            + ", ".join(sorted(SUITES))
        )
    report = SuiteReport()
    runner(args, report)
    if report.checks == 0:
        report.fail("no checks ran at these scales")
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "pass": report.passed,
                    "checks": report.checks,
                    "counterexample": report.counterexample,
                    "notes": report.notes,
                }
            )
        )
    else:
        for note in report.notes:
            print(f"verify {args.suite}: {note}")
        print(f"verify {args.suite}: {report.checks} checks")
        if report.counterexample is not None:
            print(f"verify {args.suite}: counterexample: {report.counterexample}")
        print(f"verify {args.suite}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nsympeak",
        description="higher-order peak algebras inside noncommutative "
        "symmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--N", type=int, help="root order for peak bases")
        if fmt:
            p.add_argument(
                "--format", choices=("text", "json"), default="text"
            )

    p = sub.add_parser("expand", help="rewrite an element in a chosen basis")
    p.add_argument("expr")
    p.add_argument(
        "--to", default="R", choices=("S", "R", "Sigma", "rho", "T")
    )
    common(p)
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("convert", help="reprint an element (text or JSON)")
    p.add_argument("expr")
    common(p)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("hilbert", help="dimension table for one root order")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("verify", help="run a named property sweep")
    p.add_argument("suite")
    p.add_argument("--N", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--q")
    p.add_argument("--order", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "internal", help="internal product of two homogeneous elements"
    )
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p.add_argument(
        "--to",
        default="auto",
        choices=("auto", "S", "R", "Sigma", "rho", "T"),
    )
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
    p.add_argument(
        "--to", default="R", choices=("S", "R", "Sigma", "rho", "T")
    )
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
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_tangent)

    p = sub.add_parser(
        "bases", help="index families and the block bijection at one weight"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_bases)

    return parser


def main(argv=None):
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
    except ValueError as exc:
        # UsageError, ElementParseError and every other input error.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
