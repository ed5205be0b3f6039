"""End-to-end tests of the command line, run in process."""

import json
import time

import pytest

from nsympeak import cli
from nsympeak.elements import MAX_EXPANSION_TERMS


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
    ones = "R[" + ",".join(["1"] * 24) + "]"
    start = time.monotonic()
    rc, out, err = run(capsys, "internal", ones, ones)
    assert time.monotonic() - start < 1
    assert rc == 4
    assert out == ""
    assert err.startswith("error:") and "S-word pairs" in err
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


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "1/0*S[1]", "--to", "R"],
        ["expand", '{"basis": "S", "terms": [{"comp": [1], '
                   '"coeff": {"num": 1, "den": 0}}]}'],
        ["expand", '{"basis": "S"}'],
        ["bases", "--n", "3", "--N", "1"],
        ["hilbert", "--N", "0", "--max-n", "4"],
        ["hilbert", "--N", "2", "--max-n", "-1"],
    ],
    ids=["zero-denominator", "json-zero-den", "json-no-terms", "bases-N1",
         "hilbert-N0", "hilbert-negative-max-n"],
)
def test_bad_input_exits_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


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
    def broken(args, report):
        report.checks += 1
        report.fail("I=(2,1) J=(1,1)")

    monkeypatch.setitem(cli.SUITES, "ideal", broken)
    rc, out, _ = run(capsys, "verify", "ideal")
    assert rc == 1
    assert "verify ideal: FAIL" in out
    assert "counterexample: I=(2,1) J=(1,1)" in out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    capsys.readouterr()
