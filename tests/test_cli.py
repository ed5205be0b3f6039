"""End-to-end tests of the command line, run in process."""

import json
import sys
import time
from pathlib import Path

import pytest

from nsympeak import cli, peak, series
from nsympeak.compositions import MAX_WEIGHT, compositions_of, decode, epsilon_inv
from nsympeak.descent import MAX_WORD_PAIRS
from nsympeak.elements import MAX_EXPANSION_TERMS, NsymElement, R, S, all_words
from nsympeak.series import MAX_RECURSION_TERMS
from nsympeak.textforms import composition_to_text


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_expand_to_ribbons(capsys):
    rc, out, _ = run(capsys, "expand", "S[1,1]", "--to", "R")
    assert rc == 0
    assert out.strip() == "R[1,1] + R[2]"


def test_expand_to_sigma(capsys):
    rc, out, _ = run(capsys, "expand", "R[2,1,1]", "--to", "Sigma", "--N", "3")
    assert rc == 0
    assert out.strip() == "Sigma[2,1,1] - Sigma[3,1] - Sigma[2,2]"


def test_expand_not_member(capsys):
    rc, out, err = run(capsys, "expand", "R[3]", "--to", "Sigma", "--N", "3")
    assert rc == 3
    assert out.strip() == "NOT_MEMBER"
    assert "error:" in err


def test_expand_to_rho_and_T(capsys):
    # The Sigma coordinates of R[2,1,1] telescope to a single peak ribbon.
    rc, out, _ = run(capsys, "expand", "R[2,1,1]", "--to", "rho", "--N", "3")
    assert rc == 0
    assert out.strip() == "rho[2,1,1]"
    rc, out, _ = run(capsys, "expand", "Sigma[3,1]", "--to", "T", "--N", "3")
    assert rc == 0
    assert out.strip() == "T[4]"


def test_T_literals_round_trip(capsys):
    # T_K is Sigma of epsilon^-1(K): T[4] is Sigma[3,1], T[2] is Sigma[2].
    rc, out, _ = run(capsys, "expand", "T[4,2] + 2*T[1]", "--N", "3", "--to", "R")
    assert (rc, out) == (0, "2*R[1] + R[3,1,2] + R[3,3]\n")
    literal = "2*T[5,1] + T[4,2]"
    rc, out, _ = run(capsys, "expand", literal, "--N", "3", "--to", "T")
    assert (rc, out) == (0, literal + "\n")
    # A peak target needs a homogeneous element.
    rc, out, err = run(capsys, "expand", "T[4,2] + 2*T[1]", "--N", "3", "--to", "T")
    assert (rc, out) == (2, "")
    assert err == "error: membership needs a homogeneous element, weights [1, 6]\n"


def test_expand_peak_words_back_to_ribbons(capsys):
    rc, out, _ = run(capsys, "expand", "rho[1,1,1]", "--to", "R", "--N", "3")
    assert rc == 0
    assert out.strip() == "R[1,1,1] - R[3]"


def test_expand_usage_errors(capsys):
    rc, _, err = run(capsys, "expand", "bogus[", "--to", "R")
    assert rc == 2
    assert "position" in err
    rc, _, err = run(capsys, "expand", "S[2]", "--to", "Sigma")
    assert rc == 2
    assert "--N" in err
    rc, _, err = run(capsys, "expand", "S[2] + S[1]", "--to", "Sigma", "--N", "2")
    assert rc == 2  # inhomogeneous has no peak-basis coordinates


def test_internal_product_examples(capsys):
    rc, out, _ = run(capsys, "internal", "rho[1,1,1]", "rho[1,1,1]", "--N", "3")
    assert rc == 0
    assert out.strip() == "-2*rho[1,1,1]"
    rc, out, _ = run(capsys, "internal", "rho[1,2]", "rho[1,1,1]", "--N", "3")
    assert rc == 0
    assert out.strip() == "rho[1,1,1] + rho[2,1] - rho[1,2]"
    rc, out, _ = run(capsys, "internal", "S[3]", "R[2,1]")
    assert rc == 0
    assert out.strip() == "R[2,1]"


def test_internal_weight_mismatch(capsys):
    rc, _, err = run(capsys, "internal", "R[2]", "R[3]")
    assert rc == 2
    assert "weight" in err


def test_internal_capacity(capsys):
    # R[2^10,1] has 11 parts in either form: 2^10 S words a side.
    twos = "R[" + "2," * 10 + "1]"
    start = time.monotonic()
    rc, out, err = run(capsys, "internal", twos, twos)
    assert time.monotonic() - start < 1
    assert rc == 4
    assert out == ""
    assert err.startswith("error:") and "S-word pairs" in err
    assert err == (
        "error: internal product needs 1048576 S-word pairs, "
        f"above the limit {MAX_WORD_PAIRS}\n"
    )
    # Weight 9 is no longer out of reach.
    rc, out, _ = run(capsys, "internal", "R[9]", "R[9]")
    assert rc == 0
    assert out.strip() == "R[9]"


def test_expand_capacity(capsys):
    # S[1^30] has 2^29 ribbons; S[30] is the single ribbon R[30].
    ones = "S[" + ",".join(["1"] * 30) + "]"
    start = time.monotonic()
    rc, out, err = run(capsys, "expand", ones, "--to", "R")
    assert time.monotonic() - start < 1
    assert rc == 4
    assert out == ""
    assert err.startswith("error:") and str(MAX_EXPANSION_TERMS) in err
    rc, out, _ = run(capsys, "expand", "S[30]", "--to", "R")
    assert rc == 0
    assert out.strip() == "R[30]"


def test_membership_capacity(capsys):
    rc, out, err = run(capsys, "expand", "R[21]", "--to", "Sigma", "--N", "2")
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "R[2,1]", "--to", "Sigma", "--N", "3"),
        ("theta", "S[2,1]", "--q", "2", "--to", "Sigma", "--N", "3"),
    ],
    ids=["expand", "theta"],
)
def test_out_of_memory_exits_4(capsys, monkeypatch, argv, fmt):
    # An admitted request can outgrow the memory; that ends as a size
    # limit does, not in a traceback.
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(peak, "membership", out_of_memory)
    monkeypatch.setattr(cli, "membership", out_of_memory)
    rc, out, err = run(capsys, *argv, "--format", fmt)
    assert rc == 4
    assert out == ""
    assert err == "error: out of memory\n"


def test_word_weight_capacity(capsys):
    # A word's code holds one bit per unit of weight.
    rc, out, err = run(capsys, "expand", f"S[{MAX_WEIGHT + 1}]", "--to", "R")
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1 and str(MAX_WEIGHT) in err
    rc, out, _ = run(capsys, "convert", f"S[{MAX_WEIGHT - 1},1]")
    assert rc == 0
    assert out == f"S[{MAX_WEIGHT - 1},1]\n"


HALF = MAX_WEIGHT // 2


@pytest.mark.parametrize(
    "argv, want",
    [
        (("expand", f"S[{MAX_WEIGHT}]", "--to", "R"), f"R[{MAX_WEIGHT}]\n"),
        (("expand", f"R[{HALF},{HALF}]", "--to", "S"),
         f"S[{HALF},{HALF}] - S[{MAX_WEIGHT}]\n"),
    ],
    ids=["S-max-weight-to-R", "R-two-halves-to-S"],
)
def test_heavy_words_in_time(capsys, argv, want):
    # A basis change steps only through the positions its words hold, so
    # a word of few parts costs little whatever its weight.
    start = time.monotonic()
    rc, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 5
    assert rc == 0 and err == ""
    assert out == want


def test_expand_of_every_word_of_weight_15(capsys):
    # 3^14 coarsenings, but at most 2^14 ribbons: the basis change runs.
    words = " + ".join(f"S{composition_to_text(I)}" for I in compositions_of(15))
    rc, out, err = run(capsys, "expand", words, "--to", "R")
    assert rc == 0 and err == ""
    assert out.count("R[") == 1 << 14
    assert out.startswith("R[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1] + 2*R[2,1,")
    assert out.endswith(" + 8192*R[1,14] + 16384*R[15]\n")


def test_theta_capacity(capsys):
    # The image of S[2^22] in S reads and adds about 2^23 terms; 2^19 is
    # the limit.
    twos = "S[" + ",".join(["2"] * 22) + "]"
    start = time.monotonic()
    rc, out, err = run(capsys, "theta", twos, "--q", "2", "--to", "S")
    assert time.monotonic() - start < 1
    assert rc == 4
    assert out == ""
    assert err.startswith("error:") and str(MAX_RECURSION_TERMS) in err


@pytest.mark.parametrize("suite, max_n", [("decomp-R", "7"), ("basis", "9")])
def test_verify_one_weight_past_the_default_scale(capsys, suite, max_n):
    # The suite asks for all its transform images at once, each word
    # checked against the recursion limit on its own: none is refused.
    rc, out, _ = run(capsys, "verify", suite, "--max-n", max_n)
    assert rc == 0
    assert out.endswith(f"verify {suite}: PASS\n")


@pytest.mark.parametrize("N", ["5", "7"])
@pytest.mark.parametrize("suite", list(cli.ADOPTED_READINGS))
def test_verify_decompositions_at_larger_orders(capsys, suite, N):
    # The default scale stops at N = 4 and weight 6; every word of
    # weight <= 7 is one check.
    rc, out, _ = run(capsys, "verify", suite, "--N", N, "--max-n", "7", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert (report["pass"], report["checks"]) == (True, 128)


@pytest.mark.parametrize("suite", ["basis", "decomp-S", "decomp-R-rho"])
def test_verify_past_the_word_listing_limit_is_refused(capsys, suite):
    # All 2^40 words of weight <= 40 would be listed first.
    start = time.monotonic()
    rc, out, err = run(capsys, "verify", suite, "--max-n", "40")
    assert time.monotonic() - start < 1
    assert (rc, out) == (4, "")
    assert err == ("error: listing every word of weight 0 to 40 needs "
                   f"1099511627776 terms, above the limit {MAX_EXPANSION_TERMS}\n")


def test_verify_refused_at_the_word_theta_refuses_alone(capsys, monkeypatch):
    # With the limit lowered, R[1^5] is the lowest word whose image alone
    # passes it at zeta_3; the suite stops there with the same line.
    monkeypatch.setattr(series, "MAX_RECURSION_TERMS", 200)
    rc, out, alone = run(capsys, "theta", "R[1,1,1,1,1]", "--q", "zeta", "--N", "3", "--to", "R")
    assert rc == 4 and out == "" and alone.startswith("error: transform needs")
    assert run(capsys, "theta", "R[4]", "--q", "zeta", "--N", "3", "--to", "R")[0] == 0
    rc, out, err = run(capsys, "verify", "decomp-R", "--N", "3", "--max-n", "5")
    assert (rc, out, err) == (4, "", alone)


def test_theta_of_a_long_word_of_ones(capsys):
    # The S-basis extension multiplies 15 one-word generators; writing
    # S[1^15] in ribbons first would need a basis change of 3^14 terms.
    ones = "S[" + ",".join(["1"] * 15) + "]"
    rc, out, _ = run(capsys, "theta", ones, "--q", "2", "--to", "S")
    assert rc == 0
    assert out == "-" + ones + "\n"


# theta "R[1^14]" --q zeta --N 3 as printed when ribbons were first
# expanded into their 2^13 S words.
R_ONES_14_IMAGE = (
    "(1 - z)*R[1,1,1,1,1,1,1,1,1,1,1,1,1,1]"
    " + (-1 - 2*z)*R[1,1,1,1,1,1,1,1,1,1,1,1,2]"
    " + (-2 - z)*R[1,1,1,1,1,1,1,1,1,1,1,3]"
    " + (-1 + z)*R[1,1,1,1,1,1,1,1,1,1,4]"
    " + (1 + 2*z)*R[1,1,1,1,1,1,1,1,1,5]"
    " + (2 + z)*R[1,1,1,1,1,1,1,1,6]"
    " + (1 - z)*R[1,1,1,1,1,1,1,7]"
    " + (-1 - 2*z)*R[1,1,1,1,1,1,8]"
    " + (-2 - z)*R[1,1,1,1,1,9]"
    " + (-1 + z)*R[1,1,1,1,10]"
    " + (1 + 2*z)*R[1,1,1,11]"
    " + (2 + z)*R[1,1,12]"
    " + (1 - z)*R[1,13]"
    " + (-1 - 2*z)*R[14]\n"
)


def test_theta_of_a_long_ribbon_of_ones(capsys):
    ones = "R[" + ",".join(["1"] * 14) + "]"
    start = time.monotonic()
    rc, out, _ = run(capsys, "theta", ones, "--q", "zeta", "--N", "3")
    assert time.monotonic() - start < 1
    assert rc == 0
    assert out == R_ONES_14_IMAGE


def test_theta_of_a_ribbon_of_twos(capsys):
    # Through its 128 S words the change back to ribbons was refused.
    twos = "R[" + ",".join(["2"] * 8) + "]"
    rc, out, _ = run(capsys, "theta", twos, "--q", "zeta", "--N", "3")
    assert rc == 0
    assert out.startswith("(-2 - z)*R[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1] + ")


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "S[" + ",".join(["2"] * 10) + "]", "--q", "zeta", "--N", "3",
         "--to", "R"),
        ("theta", "S[" + ",".join(["2"] * 22) + "]", "--q", "2"),
        ("theta", "S[" + ",".join(["2"] * 20) + "]", "--q", "2", "--to", "S"),
        ("theta", "R[2,2,2,2,2,2,2,2,1]", "--q", "zeta", "--N", "3",
         "--to", "S"),
        ("expand", "(z)*S[1]", "--N", "4000037", "--to", "R"),
        ("theta", "S[1]", "--q", "zeta", "--N", "4000037"),
        ("bases", "--n", "23", "--N", "2"),
        ("bases", "--n", "40", "--N", "2"),
        # Counts past 4300 digits are printed as powers of two.
        ("bases", "--n", "20000", "--N", "2"),
        ("bases", "--n", "20000", "--N", "2", "--format", "json"),
        ("det-theta", "--n", "8000", "--q", "2"),
        ("verify", "det", "--n", "8000"),
        ("theta", "S[20000]", "--q", "2", "--to", "S"),
        ("expand", "S[" + ",".join(["1"] * 15000) + "]", "--to", "R"),
        ("internal", "R[" + "2," * 7499 + "1]", "R[" + "2," * 7499 + "1]"),
        # One word pair, but every word of the product has 400 parts.
        ("internal", "S[" + ",".join(["1"] * 400) + "]",
         "S[" + ",".join(["1"] * 400) + "]"),
        ("internal", "S[400]", "S[" + ",".join(["1"] * 400) + "]"),
    ],
    ids=["theta-twos-10", "theta-twos-22", "theta-twos-20-S",
         "theta-ribbon-twos-S", "expand-conductor", "theta-conductor",
         "bases-23", "bases-40", "bases-20000", "bases-20000-json",
         "det-theta-8000", "verify-det-8000", "theta-S20000", "expand-ones-15000",
         "internal-twos-7499", "internal-S-ones-400", "internal-S400-ones-400"],
)
def test_refused_within_a_second(capsys, argv):
    start = time.monotonic()
    rc, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("n", [9, 11, 24, 15000])
def test_internal_ribbon_of_ones_answered_within_a_second(capsys, n):
    # R[1^n], the class of the longest permutation, squares to R[n]; it
    # is taken as R[n], one S word, on each side.
    ones = "R[" + ",".join(["1"] * n) + "]"
    start = time.monotonic()
    rc, out, err = run(capsys, "internal", ones, ones)
    assert time.monotonic() - start < 1
    assert (rc, out, err) == (0, f"R[{n}]\n", "")


@pytest.mark.parametrize(
    "argv",
    [("det-theta", "--n", "20", "--q", "2"), ("verify", "det", "--n", "12")],
    ids=["det-theta", "verify-det"],
)
def test_transform_matrix_capacity(capsys, argv):
    # The weight-n matrix has 4^(n-1) entries: n = 12 is past 2^21.
    start = time.monotonic()
    rc, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert str(MAX_EXPANSION_TERMS) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "1/0*S[1]", "--to", "R"],
        ["expand", '{"basis": "S", "terms": [{"comp": [1], '
                   '"coeff": {"num": 1, "den": 0}}]}'],
        ["expand", '{"basis": "S"}'],
        ["expand", "T[3]", "--N", "3"],
        ["bases", "--n", "3", "--N", "1"],
        ["bases", "--n", "-1", "--N", "3"],
        ["hilbert", "--N", "0", "--max-n", "4"],
        ["hilbert", "--N", "2", "--max-n", "-1"],
        ["tangent", "--N", "2", "--order", "-1"],
    ],
    ids=["zero-denominator", "json-zero-den", "json-no-terms", "T-part-N",
         "bases-N1", "bases-negative-n", "hilbert-N0", "hilbert-negative-max-n",
         "tangent-negative-order"],
)
def test_bad_input_exits_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def _json_with(field, bad):
    """A one-term JSON element whose field (a composition part, a
    coefficient's num or den, or its conductor N) holds bad."""
    num, den, N, part = 1, 1, 3, 2
    if field == "comp":
        part = bad
    elif field == "num":
        num = bad
    elif field == "den":
        den = bad
    else:
        N = bad
    coeff = {"N": N, "coeffs": [{"num": 0, "den": 1}, {"num": num, "den": den}]}
    return json.dumps({"basis": "S", "terms": [{"comp": [1, part], "coeff": coeff}]})


@pytest.mark.parametrize("bad", [1.9, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", ["comp", "num", "den", "N"])
def test_json_numbers_must_be_integers(capsys, field, bad):
    # int() would read 1.9 and true as 1 and "2" as 2; each is refused.
    assert run(capsys, "convert", _json_with(field, 2))[0] == 0
    rc, out, err = run(capsys, "convert", _json_with(field, bad))
    assert rc == 2
    assert out == ""
    what = 'a "comp" part' if field == "comp" else f'"{field}"'
    assert err == f"error: {what} must be a JSON integer, not {json.dumps(bad)}\n"


@pytest.mark.parametrize("field", ["terms", "coeffs", "comp"])
@pytest.mark.parametrize("bad", [{}, "", 3], ids=["object", "string", "number"])
def test_json_lists_must_be_lists(capsys, field, bad):
    # An empty object or string was read as an empty list: 0, exit 0.
    coeff = {"N": 3, "coeffs": [{"num": 0, "den": 1}, {"num": 1, "den": 1}]}
    obj = {"basis": "S", "terms": [{"comp": [1, 2], "coeff": coeff}]}
    assert run(capsys, "expand", json.dumps(obj)) == (0, "(z)*R[1,2] + (z)*R[3]\n", "")
    if field == "terms":
        obj["terms"] = bad
    elif field == "coeffs":
        coeff["coeffs"] = bad
    else:
        obj["terms"][0]["comp"] = bad
    rc, out, err = run(capsys, "expand", json.dumps(obj))
    assert (rc, out) == (2, "")
    assert err == f'error: "{field}" must be a JSON list, not {json.dumps(bad)}\n'


def test_hilbert_rows(capsys):
    rc, out, _ = run(capsys, "hilbert", "--N", "2", "--max-n", "6")
    assert rc == 0
    assert out.strip() == "1 1 1 2 3 5 8"
    rc, out, _ = run(capsys, "hilbert", "--N", "3", "--max-n", "5")
    assert rc == 0
    assert out.strip() == "1 1 2 3 6 11"
    rc, out, _ = run(capsys, "hilbert", "--N", "5", "--max-n", "4")
    assert rc == 0
    assert out.strip() == "1 1 2 4 8"


def test_hilbert_large_N_in_time(capsys):
    # Parts above n never occur, so the order N does not set the work.
    start = time.monotonic()
    rc, out, _ = run(capsys, "hilbert", "--N", "4000037", "--max-n", "3")
    assert time.monotonic() - start < 1
    assert (rc, out) == (0, "1 1 2 4\n")


def test_hilbert_json(capsys):
    rc, out, _ = run(capsys, "hilbert", "--N", "2", "--max-n", "4",
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"N": 2, "max_n": 4, "dims": [1, 1, 1, 2, 3]}


def test_theta_plain_and_normalized(capsys):
    rc, out, _ = run(capsys, "theta", "S[2]", "--q", "2")
    assert rc == 0
    assert out.strip() == "2*R[1,1] - R[2]"
    rc, out, _ = run(capsys, "theta", "S[2]", "--q", "2", "--to", "S")
    assert rc == 0
    assert out.strip() == "2*S[1,1] - 3*S[2]"
    rc, out, _ = run(capsys, "theta", "S[3]", "--q", "zeta", "--N", "3",
                     "--normalized")
    assert rc == 0
    assert out.strip() == "(-1 - z)*R[1,1,1] + (-z)*R[1,2] + R[3]"


def test_det_theta_weight_10_in_time(capsys):
    start = time.monotonic()
    rc, out, _ = run(capsys, "det-theta", "--n", "10", "--q", "2")
    assert time.monotonic() - start < 5
    assert rc == 0
    assert out.endswith("equal: yes\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, digits",
    [
        (("det-theta", "--n", "8", "--q=1000000"), 6144),
        (("theta", "S[2]", "--q=" + "7" * 3000), 6000),
        (("det-theta", "--n", "11", "--q=-3"), 5722),
        (("hilbert", "--N", "2", "--max-n", "30000"), 6270),
    ],
    ids=["det-theta-big-q", "theta-big-q", "det-theta-n11", "hilbert-fib-30000"],
)
def test_digit_limit_is_capacity(capsys, argv, digits, fmt):
    # Values past Python's int-to-text limit are a size limit, not bad input.
    rc, out, err = run(capsys, *argv, "--format", fmt)
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"{digits} digits" in err
    assert str(sys.get_int_max_str_digits()) in err


def test_digit_limit_is_per_printed_entry(capsys):
    # 1/p + 1/q*z is stored over the common denominator p*q, which is past
    # the limit; each printed entry is not, so the value prints.
    limit = sys.get_int_max_str_digits()
    p, q = 2 ** (2 * limit), 3 ** (5 * limit // 4)
    assert len(str(p)) < limit and len(str(q)) < limit
    assert p * q > 10**limit
    expr = f"(1/{p} + 1/{q}*z)*S[1]"
    rc, out, _ = run(capsys, "expand", expr, "--N", "3", "--to", "R")
    assert rc == 0
    assert out == f"(1/{p} + 1/{q}*z)*R[1]\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_digit_limit_on_a_cyclotomic_entry(capsys, fmt):
    rc, out, err = run(capsys, "theta", "(z)*S[2]", "--N", "3",
                       "--q=" + "7" * 3000, "--format", fmt)
    assert rc == 4
    assert out == ""
    assert err.count("\n") == 1 and "6000 digits" in err


def test_large_conductor_in_time(capsys):
    # N = 60060 has 64 squarefree divisors; Phi_N has degree 11520.
    start = time.monotonic()
    rc, out, _ = run(capsys, "expand", "(z)*S[1]", "--N", "60060", "--to", "R")
    assert time.monotonic() - start < 5
    assert rc == 0
    assert out == "(z)*R[1]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "(2z)*S[1]", "--to", "S", "--N", "5"],
        ["expand", "(z z)*S[1]", "--to", "S", "--N", "5"],
        ["expand", "(z^2 3)*R[2]", "--N", "5"],
    ],
    ids=["2z", "z-z", "z2-3"],
)
def test_juxtaposed_z_terms_refused(capsys, argv):
    # Inside parentheses as outside, two terms need a sign between them.
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "expected '+' or '-' between terms" in err


def test_spaced_unit_coefficient(capsys):
    rc, out, _ = run(capsys, "expand", "1 * S[2]", "--to", "S")
    assert rc == 0
    assert out == "S[2]\n"


_LONG = "7" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", _LONG + "*S[1]", "--to", "R"],
        ["theta", "S[1]", "--q=" + _LONG],
        ["convert", '{"basis": "S", "terms": [{"comp": [1], '
                    '"coeff": {"num": %s, "den": 1}}]}' % _LONG],
    ],
    ids=["literal", "q", "json"],
)
def test_over_long_input_number(capsys, argv):
    # Refused as bad input in one short line that does not echo the digits.
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(err) < 200
    assert "5000 digits" in err
    assert str(sys.get_int_max_str_digits()) in err
    assert "(at position " in err


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "S[3]", "--q", "-1/2"),
        ("det-theta", "--n", "2", "--q", "-5/7"),
        ("verify", "det", "--q", "-1/2"),
        ("theta", "S[2,1]", "--q", "-3", "--to", "S"),
    ],
)
def test_negative_q_as_its_own_token(capsys, argv):
    # argparse takes "-1/2" for an option; it reads as --q=-1/2.
    i = argv.index("--q")
    joined = (*argv[:i], f"--q={argv[i + 1]}", *argv[i + 2:])
    want = run(capsys, *joined)
    assert want[0] == 0
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("q", ["1e10000000", "0.5"])
def test_q_is_one_rational(capsys, q):
    # No exponent or decimal forms: 10^10000000 is never built.
    start = time.monotonic()
    rc, out, err = run(capsys, "theta", "S[1]", "--q", q)
    assert time.monotonic() - start < 1
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --q")


def test_error_inside_parentheses_has_one_position(capsys):
    rc, _, err = run(capsys, "expand", "S[1] + (1 + y)*S[2]", "--N", "3")
    assert rc == 2
    assert err.count("position") == 1
    assert "(at position 12)" in err


def test_theta_normalized_needs_N(capsys):
    rc, _, err = run(capsys, "theta", "S[2]", "--q", "zeta")
    assert rc == 2
    assert "--N" in err
    rc, _, err = run(capsys, "theta", "S[2]", "--q", "2", "--normalized")
    assert rc == 2


def test_det_theta(capsys):
    rc, out, _ = run(capsys, "det-theta", "--n", "2", "--q", "2")
    assert rc == 0
    assert out.splitlines() == ["det = -3", "formula = -3", "equal: yes"]
    rc, out, _ = run(capsys, "det-theta", "--n", "3", "--q", "zeta", "--N", "3")
    assert rc == 0
    assert "det = 0" in out


def test_tangent_report(capsys):
    rc, out, _ = run(capsys, "tangent", "--N", "2", "--order", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "N=2 order=4"
    assert "geometric-inverse: PASS" in lines
    assert "sigma-lambda: PASS" in lines
    assert "root-deformed: PASS" in lines
    assert "order-2-specialization: PASS" in lines
    rc, out, _ = run(capsys, "tangent", "--N", "3", "--order", "4")
    assert rc == 0
    assert "order-2-specialization" not in out
    # The JSON report keeps the text report's key order; the N = 2
    # specialization comes last and only at N = 2.  At order 0 every
    # identity reads 1 = 1, and the report still runs each check.
    keys = ["geometric-inverse", "sigma-lambda", "root-deformed"]
    for N, order, extra in [(2, 4, ["order-2-specialization"]), (3, 4, []),
                            (2, 0, ["order-2-specialization"]), (3, 0, [])]:
        rc, out, _ = run(capsys, "tangent", "--N", str(N), "--order", str(order),
                         "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert obj == {"N": N, "order": order,
                       "results": dict.fromkeys(keys + extra, True)}
        assert list(obj) == ["N", "order", "results"]
        assert list(obj["results"]) == keys + extra
        rc, out, _ = run(capsys, "tangent", "--N", str(N), "--order", str(order))
        assert rc == 0
        assert out == f"N={N} order={order}\n" + "".join(
            f"{key}: PASS\n" for key in keys + extra
        )


def _false_verdict(identity):
    """The identity with its verdict turned false, both sides kept."""
    def broken(ctx, order):
        lhs, rhs, _ = identity(ctx, order)
        return lhs, rhs, False
    return broken


def _scaled_element(series):
    """The element series times 2: still an element, no longer -t at N = 2."""
    def broken(ctx, order):
        return series(ctx, order).scale(2)
    return broken


# (function broken in cli, how, the suite that fails, its report, the
# tangent report's key that reads FAIL or None).
SERIES_FAULTS = [
    ("tangent_series", _false_verdict, "tangent",
     '{"suite": "tangent", "pass": false, "checks": 0, '
     '"counterexample": "N=2 order=8", "notes": []}', "geometric-inverse"),
    ("sigma_lambda_N", _false_verdict, "sigma-lambda",
     '{"suite": "sigma-lambda", "pass": false, "checks": 0, '
     '"counterexample": "N=2 order=8", "notes": []}', "sigma-lambda"),
    ("tangent_zeta_series", _false_verdict, "tangent-zeta",
     '{"suite": "tangent-zeta", "pass": false, "checks": 0, '
     '"counterexample": "N=2 order=8", "notes": []}', "root-deformed"),
    ("tangent_zeta_element_series", _scaled_element, "tangent-zeta",
     '{"suite": "tangent-zeta", "pass": false, "checks": 1, '
     '"counterexample": "N=2: deformed element is not minus the plain one", '
     '"notes": []}', "order-2-specialization"),
    ("lemma_rnij_series", lambda f: lambda ctx, j, order: (False, True),
     "rnij-series",
     '{"suite": "rnij-series", "pass": false, "checks": 0, '
     '"counterexample": "N=2 j=1: single-block series", "notes": []}', None),
    ("lemma_rnij_series", lambda f: lambda ctx, j, order: (True, False),
     "rnij-series",
     '{"suite": "rnij-series", "pass": false, "checks": 1, '
     '"counterexample": "N=2 j=1: inverse product series", "notes": []}', None),
]


@pytest.mark.parametrize("name,fault,suite,report,key", SERIES_FAULTS,
                         ids=[f[0] for f in SERIES_FAULTS[:4]]
                         + ["lemma_rnij_series-first", "lemma_rnij_series-second"])
def test_series_checks_report_a_broken_identity(capsys, monkeypatch, name, fault,
                                                suite, report, key):
    monkeypatch.setattr(cli, name, fault(getattr(cli, name)))
    rc, out, _ = run(capsys, "verify", suite, "--format", "json")
    assert (rc, out) == (1, report + "\n")
    obj = json.loads(report)
    rc, out, _ = run(capsys, "verify", suite)
    assert rc == 1
    assert out.splitlines()[-3:] == [
        f"verify {suite}: {obj['checks']} checks",
        f"verify {suite}: counterexample: {obj['counterexample']}",
        f"verify {suite}: FAIL",
    ]
    if key is None:
        return
    rc, out, _ = run(capsys, "tangent", "--N", "2", "--order", "6")
    assert rc == 1
    failed = [line for line in out.splitlines() if line.endswith(": FAIL")]
    assert failed == [f"{key}: FAIL"]
    assert len(out.splitlines()) == 5
    rc, out, _ = run(capsys, "tangent", "--N", "2", "--order", "6", "--format", "json")
    assert rc == 1
    results = json.loads(out)["results"]
    assert [k for k, v in results.items() if v is not True] == [key]
    assert results[key] is False


def test_bases_listing(capsys):
    rc, out, _ = run(capsys, "bases", "--n", "4", "--N", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n=4 N=3 dim=6"
    assert lines[1].startswith("F: ")
    assert lines[2].startswith("G: ")
    assert lines[3].startswith("epsilon: ")
    assert "[3,1] -> [4]" in lines[3]


def test_convert_round_trips_json(capsys):
    rc, out, _ = run(capsys, "convert", "S[1,1] - 2*S[2]", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["basis"] == "S"
    rc, out2, _ = run(capsys, "convert", out.strip())
    assert rc == 0
    assert out2.strip() == "S[1,1] - 2*S[2]"


def test_expand_json_output(capsys):
    rc, out, _ = run(capsys, "expand", "R[2,1,1]", "--to", "Sigma",
                     "--N", "3", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["basis"] == "Sigma"
    assert {"comp": [2, 1, 1], "coeff": {"num": 1, "den": 1}} in obj["terms"]
    # The JSON coordinates feed straight back into expand.
    rc, out2, _ = run(capsys, "expand", out.strip(), "--to", "R", "--N", "3")
    assert rc == 0
    assert out2.strip() == "R[2,1,1]"


def test_verify_det_point(capsys):
    rc, out, _ = run(capsys, "verify", "det", "--n", "4", "--q", "2")
    assert rc == 0
    assert "verify det: PASS" in out


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "nosuch")
    assert rc == 2
    assert "unknown suite" in err


def test_verify_tangent_pass(capsys):
    rc, out, _ = run(capsys, "verify", "tangent", "--N", "3", "--order", "4")
    assert rc == 0
    assert "verify tangent: PASS" in out


def test_verify_decomp_prints_reading(capsys):
    rc, out, _ = run(capsys, "verify", "decomp-S", "--N", "3",
                     "--max-n", "3")
    assert rc == 0
    assert "adopted reading" in out
    assert "verify decomp-S: PASS" in out


def test_verify_json_format(capsys):
    rc, out, _ = run(capsys, "verify", "ideal", "--max-n", "4",
                     "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["suite"] == "ideal"
    assert obj["pass"] is True
    assert obj["checks"] > 0
    assert obj["counterexample"] is None


def test_verify_zero_checks_fails(capsys):
    rc, out, _ = run(capsys, "verify", "basis", "--max-n", "-1")
    assert rc == 1
    assert "verify basis: 0 checks" in out
    assert "verify basis: FAIL" in out
    rc, out, _ = run(capsys, "verify", "basis", "--max-n", "-1",
                     "--format", "json")
    assert rc == 1
    obj = json.loads(out)
    assert obj["pass"] is False
    assert obj["checks"] == 0
    assert "no checks ran" in obj["counterexample"]


def test_verify_failure_exit(capsys, monkeypatch):
    # Break a real check: the third Sigma tested (I = [2,1]) leaves the ideal.
    calls = []
    in_T_ideal = cli.in_T_ideal

    def third_fails(F, N):
        calls.append(F)
        return len(calls) != 3 and in_T_ideal(F, N)

    monkeypatch.setattr(cli, "in_T_ideal", third_fails)
    rc, out, _ = run(capsys, "verify", "ideal")
    assert rc == 1
    assert "verify ideal: 2 checks" in out
    assert "verify ideal: FAIL" in out
    assert "counterexample: N=2 I=[2,1]" in out
    assert len(calls) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["peak-classical", "--N", "3"],
        ["basis", "--order", "3"],
        ["ideal", "--q", "2"],
        ["tangent", "--max-n", "3"],
        ["det", "--order", "2"],
        ["det", "--N", "5", "--max-n", "2"],
        ["det", "--N", "3", "--q", "2"],
    ],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_verify_rejects_unread_flags(capsys, argv):
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 2
    assert out == ""
    # det reads --N only to pin the root of --q zeta.
    tail = " without --q zeta" if argv[:2] == ["det", "--N"] else ""
    assert err == f"error: verify {argv[0]} does not take {argv[1]}{tail}\n"


def _zeta_json(N):
    zero, one = {"num": 0, "den": 1}, {"num": 1, "den": 1}
    return {"N": N, "coeffs": [zero, one]}


@pytest.mark.parametrize(
    "argv",
    [["expand", "--to", "R"], ["expand", "--to", "S"], ["convert"]],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_mixed_conductors_refused_at_input(capsys, argv):
    # z of Q(zeta_3) on one word and z of Q(zeta_4) on another: no single
    # field holds both, so the input is refused however it is used.
    terms = [{"comp": [1], "coeff": _zeta_json(3)},
             {"comp": [2], "coeff": _zeta_json(4)}]
    for basis in ("S", "T"):
        expr = json.dumps({"basis": basis, "terms": terms})
        rc, out, err = run(capsys, argv[0], expr, *argv[1:], "--N", "3")
        assert rc == 2
        assert out == ""
        assert err == "error: conductor mismatch: 3 vs 4 (no automatic lifting)\n"


def test_verify_det_reads_N_with_zeta(capsys):
    rc, out, _ = run(capsys, "verify", "det", "--N", "3", "--q", "zeta")
    assert rc == 0
    assert "verify det: 5 checks" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["tangent", "--order", "0"],
        ["tangent-zeta", "--order", "0"],
        ["sigma-lambda", "--order", "0"],
        ["rnij-series", "--order", "0"],
        ["tangent", "--order", "-2"],
        ["tangent-zeta", "--order", "-1"],
        ["sigma-lambda", "--order", "-1"],
        ["rnij-series", "--order", "-1"],
        ["morphism", "--max-n", "0"],
        ["theta1-psi", "--max-n", "-1"],
    ],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_verify_degenerate_scale_runs_no_checks(capsys, argv):
    # At order 0 both sides of a series identity are the constant 1, a
    # negative order has no terms to compare, at max-n 0 no product has
    # its left factor in the ideal, and a negative max-n has no weight.
    rc, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert rc == 1
    assert json.loads(out) == {
        "suite": argv[0],
        "pass": False,
        "checks": 0,
        "counterexample": "no checks ran at these scales",
        "notes": [],
    }


# Each suite's --format json line at a reduced scale: any change to a
# check count, a note or a counterexample shows up here.
PINNED_REPORTS = [
    ("basis", "--max-n", '{"suite": "basis", "pass": true, "checks": 84, '
     '"counterexample": null, "notes": ["independence: each Sigma uses only '
     'strictly shorter words below it, so the family is triangular with unit '
     'diagonal"]}'),
    ("product", "--max-n", '{"suite": "product", "pass": true, "checks": 145, '
     '"counterexample": null, "notes": []}'),
    ("projector", "--max-n", '{"suite": "projector", "pass": true, '
     '"checks": 32, "counterexample": null, "notes": []}'),
    ("morphism", "--max-n", '{"suite": "morphism", "pass": true, "checks": 2, '
     '"counterexample": null, "notes": ["N=2: dropping the ideal hypothesis '
     'fails first at I=[2], J=[1] (hypothesis necessary)", "N=3: dropping the '
     'ideal hypothesis fails first at I=[3], J=[1] (hypothesis necessary)"]}'),
    ("ideal", "--max-n", '{"suite": "ideal", "pass": true, "checks": 19, '
     '"counterexample": null, "notes": []}'),
    ("decomp-S", "--max-n", '{"suite": "decomp-S", "pass": true, "checks": 48, '
     '"counterexample": null, "notes": ["adopted reading: J runs over the '
     'members of G whose descent set contains D(I); a position of J is aligned '
     'when its running sum is a partial sum of I; each aligned part j '
     'contributes (1 - z^j), with a global twist z^(n - sum of aligned parts) '
     'and sign (-1)^(l(I) - l(J))"]}'),
    ("decomp-R", "--max-n", '{"suite": "decomp-R", "pass": true, "checks": 48, '
     '"counterexample": null, "notes": ["adopted reading: J runs over all of G '
     'at the same weight (no order restriction); the z exponent adds the '
     'non-final parts of J whose running sums are not descents of I; the '
     'factor is (1 - z^(last part of J)) with sign (-1)^(l(I) - l(J))"]}'),
    ("decomp-S-rho", "--max-n", '{"suite": "decomp-S-rho", "pass": true, '
     '"checks": 48, "counterexample": null, "notes": ["adopted reading: J runs '
     'over the members of G whose ribbon cut along I exists and yields only '
     'hook pieces; the coefficient is (1 - z)^l(I) (-z)^h with h the total '
     'count of leading ones across the pieces"]}'),
    ("decomp-R-rho", "--max-n", '{"suite": "decomp-R-rho", "pass": true, '
     '"checks": 48, "counterexample": null, "notes": ["adopted reading: J '
     'contributes when its peak set sits inside the admissible positions D(I) '
     'xor (D(I) + 1); the coefficient is (1 - z)^(hook count of J) (-z)^b with '
     'b = |(1 + (D(I) - D(J))) u (D(J) - D(I))|"]}'),
    ("tangent", "--order", '{"suite": "tangent", "pass": true, "checks": 3, '
     '"counterexample": null, "notes": []}'),
    ("tangent-zeta", "--order", '{"suite": "tangent-zeta", "pass": true, '
     '"checks": 4, "counterexample": null, "notes": ["N=2: the deformation '
     'reproduces the classical signed case"]}'),
    ("sigma-lambda", "--order", '{"suite": "sigma-lambda", "pass": true, '
     '"checks": 3, "counterexample": null, "notes": []}'),
    ("det", "--max-n", '{"suite": "det", "pass": true, "checks": 21, '
     '"counterexample": null, "notes": []}'),
    ("theta1-psi", "--max-n", '{"suite": "theta1-psi", "pass": true, '
     '"checks": 142, "counterexample": null, "notes": []}'),
    ("peak-classical", "--max-n", '{"suite": "peak-classical", "pass": true, '
     '"checks": 24, "counterexample": null, "notes": []}'),
    ("rnij-series", "--order", '{"suite": "rnij-series", "pass": true, '
     '"checks": 6, "counterexample": null, "notes": []}'),
]


def test_pinned_reports_cover_every_suite():
    assert [suite for suite, _, _ in PINNED_REPORTS] == list(cli.SUITES)


@pytest.mark.parametrize("suite,flag,line", PINNED_REPORTS,
                         ids=[suite for suite, _, _ in PINNED_REPORTS])
def test_verify_pinned_report(capsys, suite, flag, line):
    rc, out, _ = run(capsys, "verify", suite, flag, "4", "--format", "json")
    assert rc == 0
    assert out == line + "\n"


def _eager_projector(ns, max_n):
    """The projector suite's messages with every image of a weight held,
    checked after the span test: the order the streamed suite keeps."""
    for N in ns:
        ctx = peak.PeakContext(N)
        for n in range(max_n + 1):
            words = compositions_of(n)
            images = [cli.pi_N(cli.NsymElement("S", {K: 1}), ctx) for K in words]
            for K, image, inside in zip(words, images, peak.in_sigma_span(images, ctx)):
                name = f"N={N} K={composition_to_text(K)}"
                if cli.pi_N(image, ctx) != image:
                    yield f"{name}: not idempotent"
                if not inside:
                    yield f"{name}: image not in span"
                if ctx.in_G(K) and image != cli.sigma_basis(K, ctx):
                    yield f"{name}: wrong fixed image"
                yield None


def test_projector_suite_failures_keep_their_order(monkeypatch):
    # A broken pi_N and Sigma make each of the three checks fail on some
    # words, alone and together; the suite, which checks each image as
    # it is made, reports them in the order of the eager loop.
    real_pi, real_sigma = cli.pi_N, cli.sigma_basis

    def broken_pi(F, ctx):
        K = next(iter(F.terms)) if len(F.terms) == 1 else ()
        if K[:1] == (2,):
            return F  # idempotent, mostly outside the span
        if K[:1] == (1,) and len(K) > 2:
            return real_pi(F, ctx) + F  # not idempotent
        return real_pi(F, ctx)

    def broken_sigma(K, ctx):
        sigma = real_sigma(K, ctx)
        return sigma + sigma if len(K) == 2 else sigma

    monkeypatch.setattr(cli, "pi_N", broken_pi)
    monkeypatch.setattr(cli, "sigma_basis", broken_sigma)
    got = list(cli._suite_projector([], (2, 3), 5))
    assert got == list(_eager_projector((2, 3), 5))
    for kind in ("not idempotent", "image not in span", "wrong fixed image"):
        assert any(m and m.endswith(kind) for m in got)


def test_basis_suite_names_an_image_outside_the_span(monkeypatch):
    # Two images pushed outside the span by the ribbon R_3 (outside at
    # N = 3): one kept in S, one turned into ribbons, so the batch of
    # weight 3 mixes both bases. The suite names each word once, in order.
    real = cli.Theta_images
    pushed = {0b101: "S", 0b110: "R"}  # S[1,2] and S[2,1]
    off = cli.NsymElement("R", {(3,): 1})

    def broken(F, N, basis):
        for K, image in real(F, N, basis):
            if K in pushed:
                image = image.to_basis(pushed[K]) + off.to_basis(pushed[K])
            yield K, image

    monkeypatch.setattr(cli, "Theta_images", broken)
    got = [m for m in cli._suite_basis([], (3,), 5) if m]
    assert got == [
        "N=3: transform of S[1,2] outside span",
        "N=3: transform of S[2,1] outside span",
    ]


# Each decomp-* suite's code-keyed formula, the basis of its words and
# the per-word expansion it replaced.
_DECOMP_FORMULAS = {
    "decomp-S": ("decomp_theta_S_codes", "S", peak.expand_sigma_coords),
    "decomp-R": ("decomp_theta_R_codes", "R", peak.expand_sigma_coords),
    "decomp-S-rho": ("decomp_S_on_rho_codes", "S", peak.expand_rho_coords),
    "decomp-R-rho": ("decomp_R_on_rho_codes", "R", peak.expand_rho_coords),
}


def _per_word_report(suite, N, max_n):
    """(checks, counterexample) of a decomp-* suite by the per-word route:
    each word's coordinates, keyed by compositions, expanded on their own
    and compared with its transform in ribbons, up to the first word that
    differs. It reads the formula through cli, as the suite does."""
    name, basis, expand = _DECOMP_FORMULAS[suite]
    formula = getattr(cli, name)
    ctx = peak.PeakContext(N)
    checks = 0
    for I, want in series.theta_q_images(all_words(basis, 0, max_n), ctx.zeta, "R"):
        G = ctx._G_words(I.bit_length())
        if expand({G[J]: c for J, c in formula(I, ctx).items()}, ctx) != want:
            return checks, f"N={N} I={composition_to_text(decode(I))}"
        checks += 1
    return checks, None


def _perturbations(suite, N):
    """(word, change) pairs, change mapping the word's true coordinates to
    wrong ones: zeta added to one coefficient; a coefficient put on a G
    word outside the support (decomp-R's support is all of G, so there a
    coefficient is dropped instead)."""
    ctx = peak.PeakContext(N)
    formula = getattr(peak, _DECOMP_FORMULAS[suite][0])
    z = ctx.zeta
    yield 0b1011, lambda coords: {**coords, min(coords): coords[min(coords)] + z}
    for I in range(1 << 4, 1 << 6):
        missing = sorted(set(ctx._G_words(I.bit_length())) - set(formula(I, ctx)))
        if missing:
            yield I, lambda coords: {**coords, missing[-1]: 1 - z}
            return
    assert suite == "decomp-R"
    yield 0b1101, lambda coords: {J: c for J, c in coords.items() if J != max(coords)}


def _perturb(monkeypatch, suite, word, change):
    name = _DECOMP_FORMULAS[suite][0]
    real = getattr(peak, name)

    def formula(I, ctx):
        coords = real(I, ctx)
        return change(coords) if I == word else coords

    monkeypatch.setattr(cli, name, formula)


@pytest.mark.parametrize("N", [2, 5])
@pytest.mark.parametrize("suite", list(_DECOMP_FORMULAS))
def test_decomp_suite_catches_a_wrong_formula(capsys, monkeypatch, suite, N):
    # N = 2 stacks one rational column a word, N = 5 four zeta-columns.
    # The stacked report names the word the per-word route names, after
    # as many checks.
    for word, change in _perturbations(suite, N):
        _perturb(monkeypatch, suite, word, change)
        rc, out, _ = run(capsys, "verify", suite, "--N", str(N), "--max-n", "6", "--format", "json")
        report = json.loads(out)
        checks, counterexample = _per_word_report(suite, N, 6)
        assert counterexample is not None
        assert (rc, report["checks"], report["counterexample"]) == (1, checks, counterexample)


@pytest.mark.parametrize("suite", list(_DECOMP_FORMULAS))
def test_decomp_suite_catches_a_wrong_formula_in_a_later_stack(capsys, monkeypatch, suite):
    # The 512 words up to weight 9 are one batch, cut into four stacks of
    # 128; the wrong word sits in the last, so the check count is its code.
    word = (1 << 8) + 128 + 17
    assert peak.STACK_WORDS == 128
    _perturb(monkeypatch, suite, word, lambda coords: {**coords, max(coords): 2})
    rc, out, _ = run(capsys, "verify", suite, "--N", "3", "--max-n", "9", "--format", "json")
    report = json.loads(out)
    want = (word, f"N=3 I={composition_to_text(decode(word))}")
    assert _per_word_report(suite, 3, 9) == want
    assert (rc, report["checks"], report["counterexample"]) == (1, *want)


def test_decomp_suite_stops_at_the_failing_stack(capsys, monkeypatch):
    # The answers arrive stack by stack, so a formula wrong at the word
    # code 5 is reported once the first stack is checked: the formula is
    # called for that stack's words, not for all 1,024 up to weight 10.
    calls = []
    _perturb(monkeypatch, "decomp-R", 5, lambda coords: {**coords, max(coords): 2})
    wrong = cli.decomp_theta_R_codes

    def counted(I, ctx):
        calls.append(I)
        return wrong(I, ctx)

    monkeypatch.setattr(cli, "decomp_theta_R_codes", counted)
    rc, out, _ = run(capsys, "verify", "decomp-R", "--N", "3", "--max-n", "10", "--format", "json")
    report = json.loads(out)
    assert (rc, report["checks"], report["counterexample"]) == (1, 5, "N=3 I=[1,2]")
    assert len(calls) <= peak.STACK_WORDS


def _peak_classical_report(capsys, monkeypatch, change):
    """verify peak-classical --max-n 6 with Pi_(2,2,2) changed by change."""
    real = cli.classical_peak_function

    def broken(I):
        pk = real(I)
        return change(pk) if I == (2, 2, 2) else pk

    monkeypatch.setattr(cli, "classical_peak_function", broken)
    rc, out, _ = run(capsys, "verify", "peak-classical", "--max-n", "6", "--format", "json")
    return rc, json.loads(out)["counterexample"]


def test_peak_classical_names_a_ribbon_with_another_peak_set(capsys, monkeypatch):
    # R[1^6] has no peak, so it belongs to Pi_(6), not to Pi_(2,2,2).
    ones = cli.NsymElement("R", {(1,) * 6: 1})
    got = _peak_classical_report(capsys, monkeypatch, lambda pk: pk + ones)
    assert got == (1, "n=6 I=[2,2,2]: ribbon with another peak set")


def test_peak_classical_names_a_peak_function_outside(capsys, monkeypatch):
    def dropped(pk):
        ribbons = dict(pk.terms)
        del ribbons[min(ribbons)]
        return cli.NsymElement("R", ribbons)

    got = _peak_classical_report(capsys, monkeypatch, dropped)
    assert got == (1, "n=6 I=[2,2,2]: peak function outside")


def _morphism_report(capsys):
    rc, out, _ = run(capsys, "verify", "morphism", "--format", "json")
    return rc, json.loads(out)["counterexample"]


def test_morphism_names_the_first_pair_of_a_wrong_image(capsys, monkeypatch):
    # pi_N(S^(1,1)) is the left side of the pair S^1 S^1.
    real = peak.pi_N

    def broken(F, ctx):
        image = real(F, ctx)
        return image + R(2) if F == S(1, 1) else image

    monkeypatch.setattr(peak, "pi_N", broken)
    assert _morphism_report(capsys) == (1, "N=2 I=[1] J=[1]")


def test_morphism_names_the_first_pair_of_a_wrong_product(capsys, monkeypatch):
    # Pi_2(S^1) = R_1 and R_1 R_1 has two ribbons; one is dropped.
    real = peak.multiply

    def dropped(F, G):
        codes = dict(real(F, G).codes)
        if len(codes) > 1:
            del codes[max(codes)]
        return NsymElement._trusted(F.basis, codes)

    monkeypatch.setattr(peak, "multiply", dropped)
    assert _morphism_report(capsys) == (1, "N=2 I=[1] J=[1]")


def test_peak_classical_names_a_wrong_expansion(capsys, monkeypatch):
    real = cli.theta_minus1_ribbon_expansion

    def broken(I):
        coords = real(I)
        if I == (1, 2):
            J = min(coords)
            coords[J] += 1
        return coords

    monkeypatch.setattr(cli, "theta_minus1_ribbon_expansion", broken)
    rc, out, _ = run(capsys, "verify", "peak-classical", "--format", "json")
    assert (rc, json.loads(out)["counterexample"]) == (1, "I=[1,2]: expansion mismatch")


def test_product_names_a_wrong_T_basis_element(capsys, monkeypatch):
    real = cli.T_basis

    def broken(K, ctx):
        T = real(K, ctx)
        return T + R(1) if (K, ctx.N) == ((3,), 2) else T

    monkeypatch.setattr(cli, "T_basis", broken)
    rc, out, _ = run(capsys, "verify", "product", "--format", "json")
    I = composition_to_text(epsilon_inv((3,), 2))
    assert (rc, json.loads(out)["counterexample"]) == (1, f"N=2 I={I}: T identity")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_tangent_refuses_a_negative_order(capsys):
    rc, out, err = run(capsys, "tangent", "--N", "2", "--order", "-1")
    assert (rc, out, err) == (2, "", "error: --order must be >= 0, got -1\n")


@pytest.mark.parametrize("argv", [
    ["tangent", "--N", "2", "--order", "40"],
    ["tangent", "--N", "3", "--order", str(10**12)],
    ["verify", "tangent", "--N", "2", "--order", "40"],
    ["verify", "tangent-zeta", "--order", "40"],
    ["verify", "sigma-lambda", "--order", "40"],
    ["verify", "rnij-series", "--order", "40"],
])
def test_series_orders_past_the_limit_are_refused_at_once(capsys, argv):
    # A series truncated at order k may hold 2^k - 1 words: past the
    # expansion limit it is refused before any product or inverse.
    start = time.monotonic()
    rc, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert (rc, out) == (4, "")
    order = argv[-1]
    shown = "1099511627775" if order == "40" else "over 2^64"
    assert err == (
        f"error: a series truncated at order {order} needs {shown} terms, "
        "above the limit 2097152\n"
    )


_TWOS_10 = "R[" + "2," * 10 + "1]"

# One argv per outcome: each exit code main returns, argparse's own
# errors (SystemExit 2) and help (SystemExit 0).
REPEATED_ARGVS = [
    ["expand", "S[1,1]", "--to", "R"],
    ["verify", "ideal", "--max-n", "3", "--format", "json"],
    ["verify", "basis", "--max-n", "-1"],
    ["expand", "R[3]", "--to", "Sigma", "--N", "3"],
    ["tangent", "--N", "2", "--order", "-1"],
    ["verify", "basis", "--order", "3"],
    ["internal", _TWOS_10, _TWOS_10],
    ["hilbert", "--N", "2", "--max-n", "x"],
    ["expand", "S[1]", "--to", "Q"],
    ["frobnicate"],
    [],
    ["--help"],
    ["expand", "--help"],
    ["hilbert", "--N", "3", "--max-n", "6"],
]


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as stop:
        code = ("SystemExit", stop.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_repeats_with_one_parser(capsys, monkeypatch):
    # The parser is built once per process and shared by every call, so
    # no call may leave state in it that changes a later call's outcome.
    assert cli.build_parser() is cli.build_parser()
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        want = [_outcome(capsys, argv) for argv in REPEATED_ARGVS]
    codes = {code for code, _, _ in want}
    assert {0, 1, 2, 3, 4, ("SystemExit", 0), ("SystemExit", 2)} <= codes
    for _ in range(2):
        assert [_outcome(capsys, argv) for argv in REPEATED_ARGVS] == want


# Root, help, usage and error paths besides REPEATED_ARGVS (which has
# no arguments at all and an unknown command already).
DISPATCH_ARGVS = [
    ["-h"],
    ["-h", "expand"],
    ["Expand", "S[1]"],
    ["exp", "S[1]"],
    ["--", "expand", "S[1]"],
    *([name, "-h"] for name in cli.COMMANDS),
    ["expand", "S[1]", "--bogus"],
    ["expand", "S[1]", "x", "y"],
    ["expand", "S[1]", "--fo", "json"],
    ["theta", "S[2]", "--q", "-1/2"],
    ["hilbert", "--N"],
    ["internal", "R[1]"],
]


def test_command_parser_answers_as_the_root_parser(capsys):
    # The root parser hands a command's arguments to the same command
    # parser that main runs on its own, so both routes must answer alike.
    def through_root(argv):
        try:
            code = cli._run(cli.build_parser().parse_args(cli._joined_q(argv)))
        except SystemExit as stop:
            code = ("SystemExit", stop.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for argv in REPEATED_ARGVS + DISPATCH_ARGVS:
        assert _outcome(capsys, argv) == through_root(argv), argv


def test_each_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    _outcome(capsys, ["internal", "R[1]", "R[1]"])
    assert cli.build_parser.cache_info().currsize == 1
    # The root parser reuses the internal parser and builds the others.
    for _ in range(2):
        _outcome(capsys, ["frobnicate"])
    info = cli.build_parser.cache_info()
    assert info.misses == info.currsize == 1 + len(cli.COMMANDS)


def test_command_help_is_pinned(monkeypatch):
    # Each command's -h, byte for byte at a fixed terminal width; the root
    # parser's listing differs across Python versions and is left to
    # test_command_parser_answers_as_the_root_parser.
    monkeypatch.setenv("COLUMNS", "80")
    pinned = json.loads((Path(__file__).parent / "command_help.json").read_text())
    assert list(pinned) == list(cli.COMMANDS)
    for name, text in pinned.items():
        assert cli.build_parser(name).format_help() == text, name
