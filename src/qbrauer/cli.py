"""Command line front end.

Four subcommands:

  basis       enumerate the normal or cellular basis indices
  gram        Gram matrix, determinant and rank of one cell module
  semisimple  semisimplicity verdict at a point, or an (r, q) grid over F_p
  verify      run the internal consistency suites

Every subcommand takes ``--n`` (in 2..9) and ``--version``.  ``--field``,
``--q`` and ``--r`` belong to ``gram`` and ``semisimple`` (``verify``
works over the generic field), ``--format`` to ``basis``, ``gram`` and
``semisimple``.  Output is JSON by default ({config, result, timing}),
with coefficients rendered as canonical strings; ``semisimple --grid
all`` sweeps every (r, q) and emits CSV rows r, q, semisimple,
witness_label, closed_form_agrees.  ``--format csv`` is accepted only
there, and ``--q``, ``--r`` and ``--format json|text`` are not.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
(including a parameter point where a defining scalar has a vanishing
denominator), 3 rewrite step budget exceeded, 4 internal inconsistency (a
product reached a rewriting state no rule covers, as some products with a
level-2 factor do at n >= 5).  Errors with exit codes 2 to 4 print one
``error:`` line to stderr.  The environment variable
QBR_MAX_REWRITE_STEPS (an integer >= 1) bounds the rewrite engine.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import brauerdiag as bd
from . import symgrp as sg
from .cellular import Cellular, closed_form_criterion
from .coefficients import Cyclo, DenominatorVanishes, Specialization
from .qbrauer import (
    MAX_N,
    InternalInconsistency,
    QBrAlgebra,
    VERSION_MAPS,
    RewriteBudgetExceeded,
    max_rewrite_steps,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error: line, as for any invalid configuration
        raise ConfigError(message)


# -- config parsing ---------------------------------------------------------------


def parse_version(text):
    """'two-param' | 'oneparam' | 'N=<int>' | 'classical' -> (version, N)."""
    t = (text or "two-param").strip().lower().replace("_", "-")
    if t in ("two-param", "twoparam"):
        return "two_param", None
    if t in ("one-param", "oneparam"):
        return "one_param", None
    if t == "classical":
        return "classical", None
    if t.startswith("n="):
        try:
            N = int(t[2:])
        except ValueError:
            raise ConfigError(f"bad N in version {text!r}")
        if N == 0:
            raise ConfigError("N must be nonzero")
        return "n_version", N
    raise ConfigError(f"unknown version {text!r}")


def _parse_cyclo_scalar(m, tok):
    """'zeta', 'zeta^3', 'zeta^-3' or an integer, in Q(zeta_m)."""
    t = tok.strip()
    if t.startswith("zeta"):
        rest = t[4:]
        if rest == "":
            e = 1
        elif rest.startswith("^"):
            try:
                e = int(rest[1:])
            except ValueError:
                raise ConfigError(f"bad exponent in {tok!r}")
        else:
            raise ConfigError(f"cannot parse scalar {tok!r}")
        return Cyclo.zeta(m, e % m)
    try:
        return Cyclo.from_fraction(m, Fraction(t))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse scalar {tok!r}")


def _parse_int_scalar(tok):
    """An integer scalar, as F_p needs."""
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"cannot parse scalar {tok!r}")


def _fp_modulus(field_text):
    """The prime p of a field 'fp:<p>'."""
    try:
        p = int(field_text[3:])
        Specialization.prime_field(p, 1, 1)  # rejects a p that is not prime
    except ValueError as exc:
        raise ConfigError(f"bad field {field_text!r}: {exc}")
    return p


def build_spec(field_text, q_tok, r_tok):
    t = (field_text or "generic").strip().lower()
    if t == "generic":
        if q_tok or r_tok:
            raise ConfigError("the generic field keeps q and r symbolic")
        return Specialization.generic()
    if t.startswith("fp:"):
        p = _fp_modulus(t)
        if q_tok is None or r_tok is None:
            raise ConfigError("fp fields need --q and --r")
        q, r = _parse_int_scalar(q_tok), _parse_int_scalar(r_tok)
        try:
            return Specialization.prime_field(p, q, r)
        except ValueError as exc:
            raise ConfigError(str(exc))
    if t.startswith("cyclo:"):
        try:
            m = int(t[6:])
        except ValueError:
            m = 0
        if m < 1:
            raise ConfigError(f"bad field {field_text!r}")
        if q_tok is None or r_tok is None:
            raise ConfigError("cyclotomic fields need --q and --r")
        return Specialization.cyclotomic(
            m, _parse_cyclo_scalar(m, q_tok), _parse_cyclo_scalar(m, r_tok)
        )
    raise ConfigError(f"unknown field {field_text!r}")


def parse_partition(text, size):
    t = (text or "").strip().strip("()[]")
    if t == "":
        lam = ()
    else:
        try:
            lam = tuple(int(x) for x in t.replace(" ", "").split(","))
        except ValueError:
            raise ConfigError(f"cannot parse partition {text!r}")
    if any(p <= 0 for p in lam) or any(
        lam[i] < lam[i + 1] for i in range(len(lam) - 1)
    ):
        raise ConfigError(f"{text!r} is not a partition")
    if sum(lam) != size:
        raise ConfigError(f"partition {text!r} must have size {size}")
    return sg.Partition(lam)


# -- rendering ---------------------------------------------------------------


def perm_str(w):
    return "[" + ",".join(str(i + 1) for i in w) + "]"


def lam_str(lam):
    return "(" + ",".join(str(p) for p in lam) + ")"


def tab_str(t):
    return "/".join(",".join(str(x) for x in row) for row in t)


def normal_index_str(idx):
    k, u, pi, v = idx
    return f"k={k} u={perm_str(u)} pi={perm_str(pi)} v={perm_str(v)}"


def cellular_index_str(idx):
    k, lam, (s, u), (t, v) = idx
    return (
        f"k={k} lam={lam_str(lam)} s={tab_str(s)} u={perm_str(u)}"
        f" t={tab_str(t)} v={perm_str(v)}"
    )


def emit(args, config, result, t0):
    if args.format == "text":
        for key, val in result.items():
            if isinstance(val, list):
                for item in val:
                    print(item)
            else:
                print(f"{key}: {val}")
        return
    doc = {
        "config": config,
        "result": result,
        "timing": {"seconds": round(time.time() - t0, 6)},
    }
    print(json.dumps(doc, indent=2))


# -- subcommands ---------------------------------------------------------------


def cmd_basis(args):
    t0 = time.time()
    version, N = parse_version(args.version)
    if args.k is not None and not 0 <= args.k <= args.n // 2:
        raise ConfigError(f"k must be in 0..{args.n // 2}")
    alg = QBrAlgebra(args.n, version=version, N=N)
    if args.kind == "normal":
        idxs = alg.basis_indices()
        if args.k is not None:
            idxs = [i for i in idxs if i[0] == args.k]
        lines = [normal_index_str(i) for i in idxs]
    else:
        cell = Cellular(alg)
        idxs = cell.cellular_labels()
        if args.k is not None:
            idxs = [i for i in idxs if i[0] == args.k]
        lines = [cellular_index_str(i) for i in idxs]
    config = {"command": "basis", "n": args.n, "kind": args.kind, "k": args.k}
    emit(args, config, {"count": len(idxs), "indices": lines}, t0)
    return EXIT_OK


def cmd_gram(args):
    t0 = time.time()
    version, N = parse_version(args.version)
    spec = build_spec(args.field, args.q, args.r)
    n, k = args.n, args.k
    if not 0 <= k <= n // 2:
        raise ConfigError(f"k must be in 0..{n // 2}")
    lam = parse_partition(getattr(args, "lam"), n - 2 * k)
    alg = QBrAlgebra(n, version=version, spec=spec, N=N)
    if alg.a.is_zero():
        raise ConfigError("parameter a vanishes; the basis construction needs a invertible")
    cell = Cellular(alg)
    g = cell.gram(k, lam)
    # the rank first: its elimination also gives the determinant
    rk = len(g) - cell.radical_dim(k, lam)
    d = cell.gram_det(k, lam)
    config = {
        "command": "gram",
        "n": n,
        "k": k,
        "lambda": list(lam),
        "version": args.version or "two-param",
        "field": args.field or "generic",
        "q": args.q,
        "r": args.r,
    }
    result = {
        "dim_C": len(g),
        "matrix": [repr(c) for row in g for c in row],
        "det": repr(d),
        "rank": rk,
        "dim_D": rk,
    }
    emit(args, config, result, t0)
    return EXIT_OK


def _point_verdict(n, version, N, spec):
    """(semisimple, witness_label, closed_form_agrees) at one parameter point."""
    alg = QBrAlgebra(n, version=version, spec=spec, N=N)
    if alg.a.is_zero():
        raise DenominatorVanishes("parameter a vanishes")
    cell = Cellular(alg)
    verdict, witness = cell.is_semisimple()
    agrees = None
    if n in (2, 3) and version in VERSION_MAPS:
        cf, _ = closed_form_criterion(n, version, spec, N=N)
        agrees = cf == verdict
    if witness is None:
        wl = ""
    else:
        parts = ".".join(str(p) for p in witness[1]) or "-"
        wl = f"{witness[0]}:{parts}"
    return verdict, wl, agrees


def cmd_semisimple(args):
    t0 = time.time()
    version, N = parse_version(args.version)
    field = (args.field or "").strip().lower()
    if args.grid:
        if not field.startswith("fp:"):
            raise ConfigError("grid sweeps need a finite field fp:<p>")
        if args.q is not None or args.r is not None or args.format in ("json", "text"):
            raise ConfigError("grid sweeps print csv over every (r, q); drop --q, --r, --format")
        p = _fp_modulus(field)
        rows = []
        for r_img in range(1, p):
            for q_img in range(1, p):
                try:
                    spec = Specialization.prime_field(p, q_img, r_img)
                    verdict, wl, agrees = _point_verdict(args.n, version, N, spec)
                except DenominatorVanishes:
                    rows.append((r_img, q_img, "excluded", "", ""))
                    continue
                rows.append(
                    (
                        r_img,
                        q_img,
                        "true" if verdict else "false",
                        wl,
                        "" if agrees is None else ("true" if agrees else "false"),
                    )
                )
        print("r,q,semisimple,witness_label,closed_form_agrees")
        for row in rows:
            print(",".join(str(x) for x in row))
        return EXIT_OK
    spec = build_spec(args.field, args.q, args.r)
    verdict, wl, agrees = _point_verdict(args.n, version, N, spec)
    config = {
        "command": "semisimple",
        "n": args.n,
        "version": args.version or "two-param",
        "field": args.field or "generic",
        "q": args.q,
        "r": args.r,
    }
    result = {
        "semisimple": verdict,
        "witness_label": wl,
        "closed_form_agrees": agrees,
    }
    emit(args, config, result, t0)
    return EXIT_OK


# -- verify suites ---------------------------------------------------------------


def _suite_dimension(n, alg, report):
    expect = bd.diagram_count(n)
    ok = alg.dim() == expect and len(alg.basis_indices()) == expect
    report(f"dimension: rank {alg.dim()} (expected {expect})", ok)
    return ok


def _suite_relations(n, alg, report):
    fails = alg.verify_relations()
    report(f"relations: {len(fails)} failures", not fails, fails)
    return not fails


def _suite_identities(n, alg, report):
    fails = alg.verify_identities()
    report(f"identities: {len(fails)} failures", not fails, fails)
    return not fails


def _suite_associativity(n, alg, report, trials=60):
    rng = random.Random(12345)
    idxs = alg.basis_indices()
    one = alg.field.one()
    bad = []
    for _ in range(trials):
        x, y, z = ({rng.choice(idxs): one} for _ in range(3))
        if alg.mul(alg.mul(x, y), z) != alg.mul(x, alg.mul(y, z)):
            bad.append((x, y, z))
    report(f"associativity: {trials} random triples", not bad, bad)
    return not bad


def _suite_brauer_oracle(n, alg, report):
    if alg.version == "n_version":
        spec = Specialization.rationals(Fraction(1), Fraction(1))
        alg = QBrAlgebra(n, version="n_version", spec=spec, N=alg.N)
        x = alg.field.from_int(alg.N)
    else:
        x = alg.a
    idxs = alg.basis_indices()
    diags = [bd.normal_index_diagram(n, i) for i in idxs]
    pos = {d: i for i, d in enumerate(diags)}
    one = alg.field.one()
    rng = random.Random(7)
    pairs = (
        [(i, j) for i in range(len(idxs)) for j in range(len(idxs))]
        if n <= 3
        else [
            (rng.randrange(len(idxs)), rng.randrange(len(idxs)))
            for _ in range(300)
        ]
    )
    bad = []
    for i, j in pairs:
        p = alg.mul({idxs[i]: one}, {idxs[j]: one})
        d, loops = bd.compose(diags[i], diags[j])
        expect = {idxs[pos[d]]: x**loops if loops else one}
        if p != expect:
            bad.append((idxs[i], idxs[j]))
    report(f"brauer-oracle: {len(pairs)} products vs diagrams", not bad, bad)
    return not bad


def _suite_cellularity(n, alg, report):
    """Axiom (C2) of Graham and Lehrer on the generators a of Br_n: every
    term of x_{(s,u)(t,v)} a in the cell (k, lam) of x keeps the row label
    (s, u), every other term lies in a cell that dominates (k, lam), and
    the row's coefficients, keyed by the column label, are the same for
    every (s, u)."""
    cell = Cellular(alg)
    gens = [alg.g(i) for i in range(1, n)] + [alg.e_k(1)]
    bad, rows = [], {}
    for idx in cell.cellular_labels():
        k, lam, su, tv = idx
        x = cell.cell_basis_element(k, lam, su, tv)
        for a, gelt in enumerate(gens):
            y = cell.to_cellular(alg.mul(x, gelt))
            row = {}
            for (k2, lam2, su2, tv2), c in y.items():
                if (k2, lam2) == (k, lam):
                    if su2 != su:
                        bad.append((idx, (k2, lam2, su2, tv2)))
                    row[tv2] = c
                elif not cell.dominates((k2, lam2), (k, lam)):
                    bad.append((idx, (k2, lam2, su2, tv2)))
            if rows.setdefault((k, lam, tv, a), row) != row:
                bad.append((idx, "row coefficients", a))
    report("cellularity: filtration and row preservation", not bad, bad[:3])
    return not bad


SUITES = {
    "dimension": _suite_dimension,
    "relations": _suite_relations,
    "identities": _suite_identities,
    "associativity": _suite_associativity,
    "brauer-oracle": _suite_brauer_oracle,
    "cellularity": _suite_cellularity,
}


def cmd_verify(args):
    version, N = parse_version(args.version)
    oracle = version in ("n_version", "classical")  # the versions with a q = 1 diagram oracle
    if args.suite != "all" and args.suite not in SUITES:
        raise ConfigError(f"unknown suite {args.suite!r}")
    if args.suite == "brauer-oracle" and not oracle:
        raise ConfigError("the brauer-oracle suite needs --version N=<int> or classical")
    names = [name for name in SUITES if args.suite in ("all", name) and (oracle or name != "brauer-oracle")]
    alg = QBrAlgebra(args.n, version=version, N=N)
    all_ok = True

    def report(line, ok, detail=None):
        print(("PASS " if ok else "FAIL ") + line)
        if not ok and detail:
            print("  counterexamples:", detail)

    for name in names:
        all_ok &= SUITES[name](args.n, alg, report)
    return EXIT_OK if all_ok else EXIT_FAIL


# -- driver ---------------------------------------------------------------


def make_parser():
    ap = _Parser(prog="qbrauer", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help=f"2..{MAX_N}")
    common.add_argument("--version", default=None, help="two-param | oneparam | N=<int> | classical")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default=None, help="generic | fp:<p> | cyclo:<m>")
    field.add_argument("--q", default=None, help="image of q (int, or zeta^e for cyclo)")
    field.add_argument("--r", default=None, help="image of r")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", default=None, choices=("json", "text", "csv"), help="default json; csv under --grid")

    b = sub.add_parser("basis", parents=[common, fmt])
    b.add_argument("--kind", default="normal", choices=("normal", "cellular"))
    b.add_argument("--k", type=int, default=None)
    b.set_defaults(func=cmd_basis)

    g = sub.add_parser("gram", parents=[common, field, fmt])
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--lambda", dest="lam", required=True, help="partition of n-2k, e.g. '2,1' or ''")
    g.set_defaults(func=cmd_gram)

    s = sub.add_parser("semisimple", parents=[common, field, fmt])
    s.add_argument("--grid", default=None, choices=("all",), help="'all' sweeps the full (r,q) grid over fp:<p>")
    s.set_defaults(func=cmd_semisimple)

    v = sub.add_parser("verify", parents=[common])
    v.add_argument("--suite", default="all", help="all | " + " | ".join(SUITES))
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    try:
        try:
            args = make_parser().parse_args(argv)
        except SystemExit:  # --help
            return EXIT_OK
        if not 2 <= args.n <= MAX_N:
            raise ConfigError(f"n must be in 2..{MAX_N}")
        if getattr(args, "format", None) == "csv" and not getattr(args, "grid", None):
            raise ConfigError("--format csv is only for semisimple --grid")
        try:
            max_rewrite_steps()
        except ValueError as exc:
            raise ConfigError(str(exc))
        return args.func(args)
    except (ConfigError, DenominatorVanishes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RewriteBudgetExceeded as exc:
        print(f"error: rewrite budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
