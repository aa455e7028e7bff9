"""Command line interface: subcommands, output schema, exit codes."""

import json

import pytest

from qbrauer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_normal_count(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "--kind", "normal")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 15
    assert set(doc) == {"config", "result", "timing"}


def test_basis_cellular_count(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "--kind", "cellular")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 15


def test_basis_level_filter(capsys):
    # |B_{1,5}|^2 . 3! = 600
    code, out, _ = run(capsys, "basis", "--n", "5", "--kind", "normal", "--k", "1")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 600


def test_basis_smallest(capsys):
    code, out, _ = run(capsys, "basis", "--n", "2", "--format", "text")
    assert code == 0
    assert "count: 3" in out


def test_gram_json(capsys):
    code, out, _ = run(capsys, "gram", "--n", "3", "--k", "1", "--lambda", "1")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["dim_C"] == 3
    assert len(res["matrix"]) == 9
    assert res["rank"] == 3 and res["dim_D"] == 3
    # symmetric matrix, canonical strings
    m = res["matrix"]
    assert m[1] == m[3] == "1*q*r"


def test_gram_empty_partition(capsys):
    code, out, _ = run(capsys, "gram", "--n", "2", "--k", "1", "--lambda", "")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["dim_C"] == 1


@pytest.mark.parametrize(
    "argv, env",
    [
        (("gram", "--n", "3", "--k", "1", "--lambda", "3"), {}),
        # q = 1 makes the denominator q^2 - 1 of the scalar a vanish
        (("gram", "--n", "3", "--k", "1", "--lambda", "1",
          "--field", "fp:5", "--q", "1", "--r", "2"), {}),
        (("gram", "--n", "3", "--k", "1", "--lambda", "1",
          "--field", "fp:9", "--q", "2", "--r", "2"), {}),
        (("semisimple", "--n", "2", "--field", "fp:x", "--grid", "all"), {}),
        (("semisimple", "--n", "2", "--field", "fp:4", "--grid", "all"), {}),
        (("semisimple", "--n", "2", "--field", "fp:5", "--grid", "some"), {}),
        (("basis", "--n", "1"), {}),
        (("basis", "--n", "2"), {"QBR_MAX_REWRITE_STEPS": "abc"}),
        (("basis", "--n", "2"), {"QBR_MAX_REWRITE_STEPS": "-5"}),
        (("gram", "--n", "3", "--k", "1", "--lambda", "1", "--format", "csv"), {}),
        (("semisimple", "--n", "2", "--field", "fp:5", "--grid", "all",
          "--format", "text"), {}),
        (("semisimple", "--n", "2", "--field", "fp:5", "--grid", "all",
          "--format", "json"), {}),
        (("semisimple", "--n", "2", "--field", "fp:5", "--grid", "all",
          "--q", "2"), {}),
        (("semisimple", "--n", "2", "--field", "fp:5", "--grid", "all",
          "--r", "3"), {}),
        (("basis", "--n", "3", "--field", "fp:4"), {}),
        (("basis", "--n", "3", "--q", "2"), {}),
        (("verify", "--n", "3", "--suite", "dimension",
          "--field", "fp:5", "--q", "2", "--r", "3"), {}),
        (("verify", "--n", "3", "--suite", "dimension", "--format", "text"), {}),
        (("basis", "--n", "3", "--k", "7"), {}),
        (("basis", "--n", "3", "--k", "-1"), {}),
    ],
    ids=[
        "bad-partition",
        "vanishing-denominator",
        "composite-modulus",
        "grid-bad-modulus",
        "grid-composite-modulus",
        "grid-bad-choice",
        "n-too-small",
        "rewrite-steps-not-integer",
        "rewrite-steps-below-one",
        "csv-outside-grid",
        "grid-format-text",
        "grid-format-json",
        "grid-q",
        "grid-r",
        "basis-field",
        "basis-q",
        "verify-field",
        "verify-format",
        "basis-k-above-range",
        "basis-k-below-range",
    ],
)
def test_bad_config_exit2(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err.strip().splitlines()[-1]


def test_semisimple_grid_two_param(capsys):
    code, out, _ = run(
        capsys, "semisimple", "--n", "2", "--field", "fp:5", "--grid", "all"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,q,semisimple,witness_label,closed_form_agrees"
    non_ss = set()
    for line in lines[1:]:
        ri, qi, verdict = line.split(",")[:3]
        if verdict == "false":
            non_ss.add((int(ri), int(qi)))
        if verdict in ("true", "false"):
            assert line.split(",")[4] == "true"  # closed form agrees
    assert non_ss == {(ri, qi) for ri in (2, 3) for qi in (2, 3)}


def test_semisimple_grid_explicit_csv(capsys):
    code, out, _ = run(
        capsys,
        "semisimple", "--n", "2", "--field", "fp:5", "--grid", "all",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "r,q,semisimple,witness_label,closed_form_agrees"
    assert len(out.strip().splitlines()) == 1 + 4 * 4


def test_basis_k_range_matches_gram(capsys):
    _, _, basis_err = run(capsys, "basis", "--n", "3", "--k", "7")
    _, _, gram_err = run(capsys, "gram", "--n", "3", "--k", "7", "--lambda", "")
    assert basis_err == gram_err == "error: k must be in 0..1\n"


def test_semisimple_grid_one_param(capsys):
    code, out, _ = run(
        capsys,
        "semisimple", "--n", "2", "--field", "fp:5",
        "--version", "oneparam", "--grid", "all",
    )
    assert code == 0
    non_ss = set()
    for line in out.strip().splitlines()[1:]:
        ri, qi, verdict = line.split(",")[:3]
        if verdict == "false":
            non_ss.add((int(ri), int(qi)))
    assert non_ss == {(ri, 4) for ri in (2, 3, 4)}


def test_semisimple_cyclotomic_point(capsys):
    code, out, _ = run(
        capsys,
        "semisimple", "--n", "3", "--field", "cyclo:8",
        "--q", "zeta^3", "--r", "zeta^-3",
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["semisimple"] is True
    assert res["closed_form_agrees"] is True


def test_semisimple_bad_field_exit2(capsys):
    code, _, err = run(capsys, "semisimple", "--n", "2", "--field", "fp:abc")
    assert code == 2


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 5


def test_verify_brauer_oracle(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--suite", "brauer-oracle", "--version", "N=3"
    )
    assert code == 0
    assert "PASS" in out


def test_verify_dimension_n4(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "dimension")
    assert code == 0
    assert "105" in out


def test_version_parsing_errors(capsys):
    code, _, _ = run(capsys, "basis", "--n", "3", "--version", "bogus")
    assert code == 2
    code, _, _ = run(capsys, "basis", "--n", "3", "--version", "N=0")
    assert code == 2


def test_gram_n5_fp_det(capsys):
    # determinant and rank as printed by the dense-inverse implementation
    code, out, _ = run(
        capsys, "gram", "--n", "5", "--k", "0", "--lambda", "4,1",
        "--field", "fp:101", "--q", "3", "--r", "5",
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["dim_C"] == 4
    assert res["det"] == "55" and res["rank"] == 4


def test_verify_cellularity_n4(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "cellularity")
    assert code == 0
    assert out.startswith("PASS cellularity")
