"""Command line interface: subcommands, output schema, exit codes."""

import hashlib
import json
import time

import pytest

from qbrauer.cellular import _universal_blocks
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


def test_gram_over_a_61_bit_prime(capsys):
    # the primality test of fp:<p> costs milliseconds, not O(sqrt(p))
    code, out, _ = run(
        capsys, "gram", "--n", "3", "--k", "1", "--lambda", "1",
        "--field", f"fp:{2**61 - 1}", "--q", "3", "--r", "5",
    )
    assert code == 0
    assert json.loads(out)["result"]["dim_C"] == 3


def test_semisimple_over_a_61_bit_prime_takes_under_a_second(capsys):
    # the quantum characteristic of q^2 comes from the prime factors of
    # p - 1, not from stepping through up to p - 1 powers
    start = time.process_time()
    code, out, _ = run(
        capsys, "semisimple", "--n", "3",
        "--field", f"fp:{2**61 - 1}", "--q", "3", "--r", "5",
    )
    assert time.process_time() - start < 1.0
    assert code == 0
    assert json.loads(out)["result"]["semisimple"] is True


def test_modulus_beyond_the_primality_bound_exits2(capsys):
    psi13 = 3317044064679887385961981
    code, out, err = run(
        capsys, "gram", "--n", "3", "--k", "1", "--lambda", "1",
        "--field", f"fp:{psi13}", "--q", "3", "--r", "5",
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: bad field")


FP_FRACTION_SCALAR = (
    "gram", "--n", "3", "--k", "0", "--lambda", "2,1",
    "--field", "fp:7", "--q", "1/2", "--r", "3",
)
CYCLO_ZERO = (
    "gram", "--n", "3", "--k", "1", "--lambda", "1",
    "--field", "cyclo:0", "--q", "zeta", "--r", "2",
)
CYCLO_NEGATIVE = (
    "gram", "--n", "3", "--k", "1", "--lambda", "1",
    "--field", "cyclo:-4", "--q", "zeta", "--r", "2",
)
# perm_table(40) would enumerate all 40! permutations
N_TOO_LARGE = (
    "gram", "--n", "40", "--k", "0", "--lambda", "40",
    "--field", "fp:7", "--q", "2", "--r", "3",
)
GRAM_31 = ("gram", "--n", "3", "--k", "1", "--lambda", "1")
GENERIC_WITH_Q = GRAM_31 + ("--field", "generic", "--q", "2")
FP_WITHOUT_IMAGES = GRAM_31 + ("--field", "fp:5")
CYCLO_NOT_INT = GRAM_31 + ("--field", "cyclo:x", "--q", "zeta", "--r", "2")
CYCLO_WITHOUT_IMAGES = GRAM_31 + ("--field", "cyclo:8")
UNKNOWN_FIELD = GRAM_31 + ("--field", "foo")
PARTITION_NOT_INTS = ("gram", "--n", "3", "--k", "0", "--lambda", "x,y")
PARTITION_INCREASING = ("gram", "--n", "3", "--k", "0", "--lambda", "1,2")
# r = q^2 = 4 makes the scalar a = (r - r^-1)/(q - q^-1) vanish mod 5
A_VANISHES = GRAM_31 + ("--field", "fp:5", "--q", "2", "--r", "4")
GRID_GENERIC = ("semisimple", "--n", "3", "--field", "generic", "--grid", "all")
UNKNOWN_SUITE = ("verify", "--n", "3", "--suite", "nosuch")
ORACLE_TWO_PARAM = ("verify", "--n", "3", "--suite", "brauer-oracle")
ORACLE_ONE_PARAM = ORACLE_TWO_PARAM + ("--version", "oneparam")
Q_ZERO = GRAM_31 + ("--field", "fp:5", "--q", "0", "--r", "2")
# argparse's own errors, without its usage block
BASIS_FIELD = ("basis", "--n", "3", "--field", "fp:4")
GRID_BAD_CHOICE = ("semisimple", "--n", "2", "--field", "fp:5", "--grid", "some")
GRAM_MISSING_ARGS = ("gram", "--n", "3")
N_NOT_INT = ("basis", "--n", "x")
ORACLE_VERSIONS = "the brauer-oracle suite needs --version N=<int> or classical"
# the whole stderr of the test_bad_config_exit2 cases that pin it
BAD_CONFIG_MESSAGES = {
    FP_FRACTION_SCALAR: "cannot parse scalar '1/2'",
    CYCLO_ZERO: "bad field 'cyclo:0'",
    CYCLO_NEGATIVE: "bad field 'cyclo:-4'",
    N_TOO_LARGE: "n must be in 2..9",
    GENERIC_WITH_Q: "the generic field keeps q and r symbolic",
    FP_WITHOUT_IMAGES: "fp fields need --q and --r",
    CYCLO_NOT_INT: "bad field 'cyclo:x'",
    CYCLO_WITHOUT_IMAGES: "cyclotomic fields need --q and --r",
    UNKNOWN_FIELD: "unknown field 'foo'",
    PARTITION_NOT_INTS: "cannot parse partition 'x,y'",
    PARTITION_INCREASING: "'1,2' is not a partition",
    A_VANISHES: "parameter a vanishes; the basis construction needs a invertible",
    GRID_GENERIC: "grid sweeps need a finite field fp:<p>",
    UNKNOWN_SUITE: "unknown suite 'nosuch'",
    ORACLE_TWO_PARAM: ORACLE_VERSIONS,
    ORACLE_ONE_PARAM: ORACLE_VERSIONS,
    Q_ZERO: "image of q must be invertible",
    BASIS_FIELD: "unrecognized arguments: --field fp:4",
    GRID_BAD_CHOICE: "argument --grid: invalid choice: 'some' (choose from 'all')",
    GRAM_MISSING_ARGS: "the following arguments are required: --k, --lambda",
    N_NOT_INT: "argument --n: invalid int value: 'x'",
}


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
        (GRID_BAD_CHOICE, {}),
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
        (BASIS_FIELD, {}),
        (("basis", "--n", "3", "--q", "2"), {}),
        (("verify", "--n", "3", "--suite", "dimension",
          "--field", "fp:5", "--q", "2", "--r", "3"), {}),
        (("verify", "--n", "3", "--suite", "dimension", "--format", "text"), {}),
        (("basis", "--n", "3", "--k", "7"), {}),
        (("basis", "--n", "3", "--k", "-1"), {}),
        (FP_FRACTION_SCALAR, {}),
        (CYCLO_ZERO, {}),
        (CYCLO_NEGATIVE, {}),
        (N_TOO_LARGE, {}),
        (GENERIC_WITH_Q, {}),
        (FP_WITHOUT_IMAGES, {}),
        (CYCLO_NOT_INT, {}),
        (CYCLO_WITHOUT_IMAGES, {}),
        (UNKNOWN_FIELD, {}),
        (PARTITION_NOT_INTS, {}),
        (PARTITION_INCREASING, {}),
        (A_VANISHES, {}),
        (GRID_GENERIC, {}),
        (UNKNOWN_SUITE, {}),
        (ORACLE_TWO_PARAM, {}),
        (ORACLE_ONE_PARAM, {}),
        (Q_ZERO, {}),
        (GRAM_MISSING_ARGS, {}),
        (N_NOT_INT, {}),
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
        "fp-fraction-scalar",
        "cyclo-zero",
        "cyclo-negative",
        "n-too-large",
        "generic-with-q",
        "fp-without-images",
        "cyclo-not-int",
        "cyclo-without-images",
        "unknown-field",
        "partition-not-ints",
        "partition-increasing",
        "a-vanishes",
        "grid-generic",
        "unknown-suite",
        "oracle-two-param",
        "oracle-one-param",
        "q-zero",
        "gram-missing-args",
        "n-not-int",
    ],
)
def test_bad_config_exit2(capsys, monkeypatch, argv, env):
    # nothing on stdout and one error: line on stderr, argparse's included
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if argv in BAD_CONFIG_MESSAGES:
        assert err == f"error: {BAD_CONFIG_MESSAGES[argv]}\n"


@pytest.mark.parametrize(
    "argv",
    [("verify", "--n", "3", "--suite", "relations"), GRAM_31],
    ids=["verify-relations", "gram"],
)
def test_rewrite_budget_exit3(capsys, monkeypatch, argv):
    # a command runs in a fresh process, where no level blocks are built yet
    _universal_blocks.cache_clear()
    monkeypatch.setenv("QBR_MAX_REWRITE_STEPS", "1")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: rewrite budget exceeded")


def test_help_exits0(capsys):
    code, out, err = run(capsys, "gram", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: qbrauer gram")


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
        if verdict in ("true", "false"):
            assert line.split(",")[4] == "true"  # closed form agrees
    assert non_ss == {(ri, 4) for ri in (2, 3, 4)}


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("version", ("oneparam", "N=2"))
def test_semisimple_grid_closed_form_agrees_on_every_admissible_row(capsys, version, n):
    code, out, _ = run(
        capsys,
        "semisimple", "--n", str(n), "--field", "fp:7",
        "--version", version, "--grid", "all",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 36
    admissible = [row for row in rows if row[2] != "excluded"]
    assert admissible and all(row[4] == "true" for row in admissible)


# sha256 of the CSV of ``qbrauer semisimple --n 4 --field fp:13 --grid all``
GRID_N4_F13_SHA256 = "15db27dc40c5ba97b6adf38ca1d31a0e1830007a637fc4b873038418acd28470"


def test_semisimple_grid_n4_f13_csv_is_unchanged(capsys):
    # every verdict and witness of the 144 points of the n = 4 grid over F_13
    code, out, _ = run(capsys, "semisimple", "--n", "4", "--field", "fp:13", "--grid", "all")
    assert code == 0
    assert len(out.splitlines()) == 1 + 12 * 12
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_N4_F13_SHA256


# sha256 of the index lines of ``qbrauer basis --n 5 --kind cellular``,
# joined by newlines
BASIS_N5_CELLULAR_SHA256 = "ac386d45389bd983377ca3aae57cb962d6ae2271ad9d986250b5173c33aa53a2"


def test_basis_n5_cellular_order_is_unchanged(capsys):
    # the 945 cellular labels (k, lam, (s, u), (t, v)) in their listed order:
    # cells most dominant first, tableaux by reading word, B_{k,n} by length
    code, out, _ = run(capsys, "basis", "--n", "5", "--kind", "cellular")
    assert code == 0
    lines = json.loads(out)["result"]["indices"]
    assert len(lines) == 945
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BASIS_N5_CELLULAR_SHA256


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


@pytest.mark.parametrize("version, oracle", [("oneparam", False), ("N=3", True), ("classical", True)])
def test_verify_all_versions(capsys, version, oracle):
    # all runs the brauer oracle exactly for the versions it applies to
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "all", "--version", version)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 5 + oracle
    assert ("PASS brauer-oracle" in out) == oracle


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


@pytest.mark.parametrize(
    "argv",
    [
        ("semisimple", "--n", "5", "--field", "fp:101", "--q", "3", "--r", "5"),
        ("gram", "--n", "5", "--k", "2", "--lambda", "1",
         "--field", "fp:101", "--q", "3", "--r", "5"),
    ],
    ids=["semisimple-n5", "gram-n5-level2"],
)
def test_internal_inconsistency_exit4(capsys, argv):
    # these n = 5 products still raise InternalInconsistency (the open
    # level-2 defect); the CLI reports it with its own exit code
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: internal inconsistency")
