"""Acceptance gate: one test per criterion, each with its time bound.

Every test prints a single CRITERION line so the run log doubles as the
acceptance report. Bounds are wall-clock seconds on a commodity machine;
the full file is expected to stay under five minutes.

Each verify suite runs once, at its default scale with ``--format json``,
and its report must match its line in ``verify_reports.jsonl`` byte for
byte. The same file is diffed against the installed ``nsympeak`` entry
point in CI.
"""

import contextlib
import io
import json
import pathlib
import time
from fractions import Fraction

from nsympeak import cli
from nsympeak.compositions import F_set, G_set, compositions_of, descent_set, hilbert_dim
from nsympeak.descent import internal_product
from nsympeak.elements import R
from nsympeak.peak import (
    PeakContext,
    membership,
    rho_basis,
    rho_membership,
    sigma_basis,
)
from oracles import (
    descent_composition,
    hook_factorization,
    part_count,
    peak_composition,
    peak_set_of_composition,
    peak_set_of_permutation,
    ribbon_factorization,
)


def _criterion(num, bound_seconds, fn):
    start = time.monotonic()
    fn()
    elapsed = time.monotonic() - start
    print(f"CRITERION {num}: PASS ({elapsed:.2f} s, bound {bound_seconds} s)")
    assert elapsed < bound_seconds, (
        f"criterion {num} exceeded {bound_seconds} s: {elapsed:.2f} s"
    )


REPORTS = {
    json.loads(line)["suite"]: line
    for line in (pathlib.Path(__file__).parent / "verify_reports.jsonl")
    .read_text()
    .splitlines(keepends=True)
}


def _verify(suite):
    """Run one suite, check its pinned report, and return the report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite, "--format", "json"])
    assert code == 0, f"suite {suite} failed"
    assert out.getvalue() == REPORTS[suite], f"suite {suite} report changed"
    return out.getvalue()


def test_criterion_1_worked_examples():
    def check():
        c2, c3 = PeakContext(2), PeakContext(3)
        assert sigma_basis((1, 2, 1), c2) == R(1, 2, 1) + R(3, 1)
        assert sigma_basis((1, 2, 1), c3) == (
            R(1, 2, 1) + R(3, 1) + R(1, 3) + R(4)
        )
        assert sigma_basis((1, 1, 2), c3) == (
            R(1, 1, 2) + R(2, 2) + R(1, 3) + R(4)
        )
        assert rho_basis((1, 1, 1), c3) == R(1, 1, 1) - R(3)
        assert rho_basis((1, 2), c3) == R(1, 2) + R(3)
        assert rho_basis((2, 1), c3) == R(2, 1) + R(3)
        assert membership(R(2, 1, 1), c3) == {
            (2, 1, 1): 1, (3, 1): -1, (2, 2): -1,
        }
        assert ribbon_factorization((3, 2, 1, 4), (2, 5, 2, 1)) == [
            (2, 1), (2,), (1,), (1, 2, 1),
        ]
        segments, hook_len, weights = hook_factorization((1, 3, 1, 4, 2))
        assert hook_len == 3
        assert descent_set(weights) == {4, 9}
        perm = (2, 6, 5, 3, 4, 1)
        assert descent_composition(perm) == (2, 1, 2, 1)
        assert descent_set((2, 1, 2, 1)) == {2, 3, 5}
        assert peak_set_of_permutation(perm) == {2, 5}
        assert peak_composition(perm) == (2, 3, 1)
        assert peak_set_of_composition((1, 3, 1, 2)) == {4}

    _criterion(1, 1, check)


def test_criterion_2_internal_product_examples():
    def check():
        c3 = PeakContext(3)
        r111 = rho_basis((1, 1, 1), c3)
        r12 = rho_basis((1, 2), c3)
        assert rho_membership(internal_product(r111, r111), c3) == {
            (1, 1, 1): -2,
        }
        assert rho_membership(internal_product(r12, r111), c3) == {
            (1, 1, 1): 1, (2, 1): 1, (1, 2): -1,
        }

    _criterion(2, 1, check)


def test_criterion_3_hilbert_series():
    def check():
        fib = [1, 1, 1]
        while len(fib) <= 12:
            fib.append(fib[-1] + fib[-2])
        for N in (2, 3, 4, 5):
            for n in range(13):
                dim = hilbert_dim(n, N)
                assert dim == len(G_set(n, N)) == len(F_set(n, N))
                if N == 2:
                    assert dim == fib[n]
                if 0 < n < N:
                    assert dim == 2 ** (n - 1)

    _criterion(3, 5, check)


def test_criterion_4_sigma_basis():
    _criterion(4, 60, lambda: _verify("basis"))


def test_criterion_5_product_rule_and_T():
    _criterion(5, 30, lambda: _verify("product"))


def test_criterion_6_projector_and_morphism():
    def check():
        _verify("projector")
        _verify("morphism")
        _verify("ideal")

    _criterion(6, 60, check)


def test_criterion_7_determinant():
    _criterion(7, 30, lambda: _verify("det"))


def test_criterion_8_transform_identities():
    _criterion(8, 60, lambda: _verify("theta1-psi"))


def test_criterion_9_decompositions():
    def check():
        for suite in ("decomp-S", "decomp-R", "decomp-S-rho", "decomp-R-rho"):
            out = _verify(suite)
            assert "adopted reading" in out, f"{suite} did not print a reading"

    _criterion(9, 120, check)


def test_criterion_10_tangent_identities():
    def check():
        _verify("tangent")
        _verify("tangent-zeta")
        _verify("sigma-lambda")

    _criterion(10, 60, check)


def test_criterion_11_classical_layer():
    _criterion(11, 60, lambda: _verify("peak-classical"))


def test_criterion_12_block_generator_series():
    _criterion(12, 30, lambda: _verify("rnij-series"))


def test_criterion_13_part_count():
    def check():
        for n in range(2, 13):
            assert part_count(n, 1) == (n + 2) * Fraction(2) ** (n - 3)
            for i in range(1, n + 1):
                assert part_count(n, i) == part_count(n - i + 1, 1)
        # Direct enumeration for the small range.
        for n in range(1, 11):
            for i in range(1, n + 1):
                brute = sum(I.count(i) for I in compositions_of(n))
                assert part_count(n, i) == brute

    _criterion(13, 5, check)


def test_pinned_reports_cover_every_suite():
    assert sorted(REPORTS) == sorted(cli.SUITES)
