"""The rewrite engine: defining relations, absorption identities, the
normal basis, products, the involution, and the diagram-algebra oracle."""

import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from qbrauer import brauerdiag as bd
from qbrauer import qbrauer as qb
from qbrauer import symgrp as sg
from qbrauer.cellular import Cellular, _universal_blocks
from qbrauer.coefficients import Fp, ParamPoly, RatFunc, Specialization
from qbrauer.hecke import _acc
from qbrauer.qbrauer import (
    InternalInconsistency,
    QBrAlgebra,
    RewriteBudgetExceeded,
    version_scalars,
)


q = RatFunc.q()
r = RatFunc.r()


def basis_elt(alg, idx):
    return {idx: alg.field.one()}


@pytest.mark.parametrize("n", [-1, 0, 1, 10, 40])
def test_algebra_rejects_n_outside_range(n):
    # the check comes before symgrp.perm_table(n) enumerates n! permutations
    with pytest.raises(ValueError, match=r"n must be in 2\.\.9"):
        QBrAlgebra(n)


# -- version scalars ---------------------------------------------------------------


def test_scalar_consistency_identity():
    # expanding g_2^{-1} inside e g_2^{-1} e forces
    # b' = Q^{-1} b + (Q^{-1} - 1) a for every version
    for version, N in (
        ("two_param", None),
        ("one_param", None),
        ("n_version", 3),
        ("n_version", -2),
        ("classical", None),
    ):
        sc = version_scalars(version, N)
        assert sc["bprime"] == sc["b"] / sc["Q"] + (1 / sc["Q"] - 1) * sc["a"]


def test_two_param_scalars():
    sc = version_scalars("two_param")
    assert sc["Q"] == q * q
    assert sc["a"] == q * (r * r - 1) / (r * (q * q - 1))
    assert sc["b"] == r * q
    assert sc["bprime"] == 1 / (r * q)


def test_one_param_scalars():
    sc = version_scalars("one_param")
    assert sc["Q"] == q
    assert sc["a"] == (r - 1) / (q - 1)
    assert sc["b"] == r
    assert sc["bprime"] == 1 / q


def test_n_version_scalars_classical_limit():
    # at q = 1 the scalars degenerate to the Brauer algebra with x = N
    for N in (1, 2, 3, -2):
        sc = version_scalars("n_version", N)
        spec = Specialization.rationals(Fraction(1), Fraction(1))
        assert spec(sc["a"]) == spec.from_int(N)
        assert spec(sc["b"]).is_one()
        assert spec(sc["bprime"]).is_one()


def test_shared_constants_do_not_leak_between_algebras():
    # the scalars and B_{k,n} are built once per process and shared:
    # mutating what the public API hands out must not reach a second algebra
    first = QBrAlgebra(4, spec=FP101)
    sc = version_scalars("two_param")
    sc["Q"] = RatFunc.from_int(1)
    sc.clear()
    with pytest.raises(AttributeError):
        first.Bkn[1].append(first.id)
    with pytest.raises(TypeError):
        first.Bkn[1][0] = first.id
    with pytest.raises(TypeError):
        first.Bkn[0] = ()
    second = QBrAlgebra(4, spec=FP101)
    assert version_scalars("two_param")["Q"] == q * q
    assert second.Q == FP101(q * q)
    assert second.a == FP101(q * (r * r - 1) / (r * (q * q - 1)))
    assert second.b == FP101(r * q)
    assert second.Bkn == tuple(tuple(sg.enumerate_Bkn(4, k)) for k in range(3))
    assert second.verify_relations() == []


# -- relations and identities ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("version", ["two_param", "one_param", "classical"])
def test_relations(n, version):
    alg = QBrAlgebra(n, version=version)
    assert alg.verify_relations() == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relations_n_version(n):
    alg = QBrAlgebra(n, version="n_version", N=2)
    assert alg.verify_relations() == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_identities(n):
    alg = QBrAlgebra(n)
    assert alg.verify_identities() == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_parameter_ring_algebra_passes_both_suites(n):
    # the generic check of the ring the level blocks are built over: Q,
    # Q^{-1}, a and b are indeterminates, so a relation holds there only if
    # the engine keeps it with no relation among the parameters
    alg = QBrAlgebra.over_parameters(n)
    assert alg.verify_relations() == []
    assert alg.verify_identities() == []


def test_dimension():
    assert [QBrAlgebra(n).dim() for n in (2, 3, 4)] == [3, 15, 105]


def test_e_k_normal_form():
    alg = QBrAlgebra(4)
    for k in (0, 1, 2):
        assert alg.e_k(k) == {(k, alg.id, alg.id, alg.id): alg.field.one()}


def test_e_g2_e():
    alg = QBrAlgebra(3)
    e = alg.e_k(1)
    assert alg.mul(alg.mul(e, alg.g(2)), e) == alg.scale(e, alg.b)
    assert alg.mul(alg.mul(e, alg.g_inv(2)), e) == alg.scale(e, alg.bprime)


def test_e_k_g2j_e_j_absorption():
    # e_(k) g_{2j} e_(j) = b a^{j-1} e_(k) for j <= k
    alg = QBrAlgebra(4)
    e2 = alg.e_k(2)
    lhs = alg.mul(alg.mul(e2, alg.g(2)), alg.e_k(1))
    assert lhs == alg.scale(e2, alg.b)


def test_straightening_equal_length_coset_members():
    # e_(2) g_x for every x at n = 4 and 5, among them x = s_1 applied to
    # the block-swap pattern, (0, 3, 1, 2) at n = 4, which lies in the same
    # H_2-coset as a shorter representative of equal minimal length: the
    # result is supported on minimal representatives, each no longer than
    # x and each the product pi * v it is stored with
    for n in (4, 5):
        alg = QBrAlgebra(n)
        T = alg._T
        minrep = alg._minrep[2]
        for x in range(len(T.perms)):
            red = alg._red(2, x)
            assert red
            for rep in red:
                assert rep in minrep
                assert T.length[rep] <= T.length[x]
                pi, v = minrep[rep]
                assert sg.mul(T.perms[pi], T.perms[v]) == T.perms[rep]
                assert T.perms[v] in alg.Bkn[2]


def test_mul_matches_left_and_right_generator_action():
    alg = QBrAlgebra(4)
    e2 = alg.e_k(2)
    z = alg.mul(alg.mul(alg.e_k(1), alg.g(2)), alg.mul(alg.g(1), alg.g(3)))
    lhs = alg.mul(z, e2)
    # recompute through a different bracketing
    rhs = alg.mul(alg.e_k(1), alg.mul(alg.g(2), alg.mul(alg.g(1), alg.mul(alg.g(3), e2))))
    assert lhs == rhs


def test_filtration():
    # J(k) is a two-sided ideal: products keep first coordinate >= k
    alg = QBrAlgebra(4)
    rng = random.Random(3)
    idxs = alg.basis_indices()
    for _ in range(40):
        i = rng.choice(idxs)
        j = rng.choice(idxs)
        p = alg.mul(basis_elt(alg, i), basis_elt(alg, j))
        for (k, u, pi, v) in p:
            assert k >= max(i[0], j[0])


def test_star_antiautomorphism_random():
    alg = QBrAlgebra(4)
    rng = random.Random(5)
    idxs = alg.basis_indices()
    for _ in range(40):
        x = basis_elt(alg, rng.choice(idxs))
        y = basis_elt(alg, rng.choice(idxs))
        assert alg.star(alg.mul(x, y)) == alg.mul(alg.star(y), alg.star(x))
        assert alg.star(alg.star(x)) == x


def test_associativity_random():
    alg = QBrAlgebra(4)
    rng = random.Random(11)
    idxs = alg.basis_indices()
    for _ in range(40):
        x, y, z = (basis_elt(alg, rng.choice(idxs)) for _ in range(3))
        assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))


def test_classical_products_match_diagrams_exhaustive():
    n = 3
    alg = QBrAlgebra(n, version="classical")
    one = alg.field.one()
    idxs = alg.basis_indices()
    diags = [bd.normal_index_diagram(n, i) for i in idxs]
    pos = {d: i for i, d in enumerate(diags)}
    for i in range(len(idxs)):
        for j in range(len(idxs)):
            p = alg.mul(basis_elt(alg, idxs[i]), basis_elt(alg, idxs[j]))
            d, loops = bd.compose(diags[i], diags[j])
            expect = {idxs[pos[d]]: alg.a**loops if loops else one}
            assert p == expect


def test_rewrite_budget():
    os.environ["QBR_MAX_REWRITE_STEPS"] = "5"
    try:
        alg = QBrAlgebra(4)
        e2 = alg.e_k(2)
        with pytest.raises(RewriteBudgetExceeded):
            alg.mul(e2, alg.mul(alg.g(2), e2))
    finally:
        del os.environ["QBR_MAX_REWRITE_STEPS"]


def test_commutation_with_window_letters():
    # e_(k) commutes with every permutation of the letters 2k+1..n
    alg = QBrAlgebra(5)
    for k in (1, 2):
        ek = alg.e_k(k)
        for i in range(2 * k + 1, 5):
            assert alg.mul(ek, alg.g(i)) == alg.mul(alg.g(i), ek)


# -- products against the term-by-term reference --------------------------------------


def termwise_mul(alg, x, y):
    """x y with every term of y replaying its whole generator word from the
    states of x and normalising its own leaf states: the product before
    shared prefixes were replayed once and leaf states merged.  The engine's
    states hold the field's internal coefficients, converted here."""
    if not x or not y:
        return {}
    alg._steps = 0
    code, f = alg._T.code, alg.field
    xstates = {}
    for (k, u, pi, v), c in x.items():
        _acc(xstates, (code[sg.inv(u)], k, code[sg.mul(pi, v)]), c)
    xstates = {s: f.inner(c) for s, c in xstates.items()}
    out = {}
    for idx2, cy in y.items():
        states = xstates
        for atom in alg._index_atoms(idx2):
            states = alg._apply_atom(states, atom)
        for (A, k, w), c in states.items():
            for idx, cn in alg._normalize(A, k, w).items():
                _acc(out, idx, f.outer(c) * f.outer(cn) * cy)
    return out


def random_element(alg, rng, idxs, lo, hi):
    """Between lo and hi terms drawn from idxs, with nonzero coefficients."""
    out = {}
    for _ in range(rng.randrange(lo, hi + 1)):
        c = alg.field.from_int(rng.randrange(1, 50)) * alg.b ** rng.randrange(3)
        _acc(out, rng.choice(idxs), c)
    return out


def product_or_raise(mul, alg, x, y):
    try:
        return mul(alg, x, y)
    except InternalInconsistency:
        return "raises"


VERSIONS = [("two_param", None), ("one_param", None), ("n_version", 2), ("classical", None)]
FP101 = Specialization.prime_field(101, 3, 5)


def level_pairs(alg, rng, per_level_pair):
    """Random multi-term pairs (x, y), per_level_pair for each pair of levels."""
    levels = {}
    for idx in alg.basis_indices():
        levels.setdefault(idx[0], []).append(idx)
    for kx in levels:
        for ky in levels:
            for _ in range(per_level_pair):
                x = random_element(alg, rng, levels[kx], 1, 3)
                y = random_element(alg, rng, levels[ky], 2, 5)
                yield x, y


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("version, N", VERSIONS)
def test_mul_matches_termwise_reference(n, version, N):
    alg = QBrAlgebra(n, version=version, N=N)
    rng = random.Random(17 * n + len(version))
    for x, y in level_pairs(alg, rng, 4):
        assert alg.mul(x, y) == termwise_mul(alg, x, y)


def test_mul_matches_termwise_reference_n5_fp():
    # products with a level-2 factor can raise (the self-referential core
    # e_(2) g_w e, an open defect); both products must raise on the same
    # pairs, 18 of the 54 drawn here
    alg = QBrAlgebra(5, spec=FP101)
    rng = random.Random(5)
    raising = 0
    for x, y in level_pairs(alg, rng, 6):
        expect = product_or_raise(termwise_mul, alg, x, y)
        got = product_or_raise(QBrAlgebra.mul, alg, x, y)
        assert got == expect
        raising += expect == "raises"
    assert raising == 18


def test_mul_steps_at_most_termwise():
    # on fresh algebras both products fill the same memo entries, and the
    # prefix tree replays no atom more often than the term-by-term loop;
    # levels 0 and 1 only, where no product raises
    rng = random.Random(23)
    configs = [(4, {"version": v, "N": N}) for v, N in VERSIONS]
    configs.append((5, {"spec": FP101}))
    saved = 0
    for n, kwargs in configs:
        idxs = [i for i in QBrAlgebra(n, **kwargs).basis_indices() if i[0] < 2]
        for _ in range(8):
            alg, ref = QBrAlgebra(n, **kwargs), QBrAlgebra(n, **kwargs)
            x = random_element(alg, rng, idxs, 1, 3)
            y = random_element(alg, rng, idxs, 2, 5)
            assert alg.mul(x, y) == termwise_mul(ref, x, y)
            assert alg._steps <= ref._steps
            saved += ref._steps - alg._steps
    assert saved > 0


def test_rewrite_budget_covers_the_whole_walk(monkeypatch):
    # the budget is per product call: a budget one below the steps of a
    # product with several terms in y fails inside the walk, the exact
    # count succeeds, and a second call starts counting afresh
    alg = QBrAlgebra(4)
    e2, g2 = alg.e_k(2), alg.g(2)
    x = alg.add(alg.e_k(1), g2)
    y = alg.add(alg.add(e2, alg.mul(g2, e2)), alg.mul(alg.g(3), alg.e_k(1)))
    assert len(y) >= 3
    fresh = QBrAlgebra(4)
    expect = fresh.mul(x, y)
    steps = fresh._steps
    monkeypatch.setenv("QBR_MAX_REWRITE_STEPS", str(steps - 1))
    short = QBrAlgebra(4)
    with pytest.raises(RewriteBudgetExceeded):
        short.mul(x, y)
    assert short._steps == steps
    monkeypatch.setenv("QBR_MAX_REWRITE_STEPS", str(steps))
    exact = QBrAlgebra(4)
    assert exact.mul(x, y) == expect
    assert exact._steps == steps
    exact.mul(x, y)
    assert exact._steps < steps


def test_gram_build_reduces_each_permutation_once(monkeypatch):
    # reduced words come from the per-n permutation table, which computes
    # each one once: building all n = 5 Gram matrices over F_101 (cell
    # (2,(1)) raises, as above) asks reduced_word at most once per
    # distinct permutation
    calls = Counter()
    reduced_word = sg.reduced_word

    def counted(w):
        calls[w] += 1
        return reduced_word(w)

    monkeypatch.setattr(sg, "reduced_word", counted)
    sg.perm_table.cache_clear()
    cell = Cellular(QBrAlgebra(5, spec=FP101))
    for k, lam in cell.labels():
        try:
            cell.gram(k, lam)
        except InternalInconsistency:
            pass
    assert calls
    assert max(calls.values()) == 1


def reference_gram(cell, k, lam):
    """The Gram matrix of C(k, lam) from one product per entry i <= j: the
    module vector x_{(t,v)} = m_lam g_{d(t)} g_v times the star of another,
    read at the Murphy label (lam, t^lam, t^lam) of the level-k part."""
    alg, T = cell.alg, cell.alg._T
    H = cell.window(k)
    lo = 2 * k + 1
    sup = sg.superstandard(lam, lo)
    clam = H.c_lambda(lam)
    vecs = []
    for t, v in cell.module_index(k, lam):
        helt = H.rmul_perm(clam, T.code[sg.tableau_perm(alg.n, t, lo)])
        vecs.append({(k, alg.id, T.perms[pi], v): c for pi, c in helt.items()})
    stars = [alg.star(x) for x in vecs]
    zero = alg.field.zero()
    mat = [[None] * len(vecs) for _ in vecs]
    for i, x in enumerate(vecs):
        for j in range(i, len(vecs)):
            p = alg.mul(x, stars[j])
            helt = {
                T.code[pi]: c for (k2, u, pi, v), c in p.items()
                if k2 == k and u == alg.id and v == alg.id
            }
            mat[i][j] = mat[j][i] = H.to_murphy(helt).get((lam, sup, sup), zero)
    return mat


def gram_steps(build, attempt_raising_cell):
    """The rewrite steps of every product and every straightening
    ``build(cell, k, lam)`` makes over all n = 5 cells over F_101 in label
    order, and the matrices it built.  Cell (2,(1)) comes first and raises
    (the self-referential core); attempted, it fills memo entries before it
    raises, which the later cells then hit."""
    alg = QBrAlgebra(5, spec=FP101)
    steps = []

    def counted(method):
        def call(*args):
            try:
                return method(*args)
            finally:
                steps.append(alg._steps)

        return call

    alg.mul, alg.straighten = counted(alg.mul), counted(alg.straighten)
    cell = Cellular(alg)
    raising, mats = [], {}
    for k, lam in cell.labels():
        if (k, lam) == (2, (1,)) and not attempt_raising_cell:
            continue
        try:
            mats[k, lam] = build(cell, k, lam)
        except InternalInconsistency:
            raising.append((k, lam))
    assert raising == ([(2, (1,))] if attempt_raising_cell else [])
    return sum(steps), mats


@pytest.mark.parametrize("attempt_raising_cell, expect", [(True, 48226), (False, 48136)])
def test_gram_rewrite_steps_n5_fp(attempt_raising_cell, expect):
    # the engine step guard: one product per Gram entry i <= j, as Gram
    # matrices were once built; a generator atom must tick once per state,
    # as the per-state loop did.  star does no rewriting, so the products
    # fill every memo entry they use themselves
    steps, mats = gram_steps(reference_gram, attempt_raising_cell)
    assert steps == expect
    cell = Cellular(QBrAlgebra(5, spec=FP101))
    assert all(cell.gram(k, lam) == mat for (k, lam), mat in mats.items())


@pytest.mark.parametrize("attempt_raising_cell, expect", [(True, 183), (False, 72)])
def test_gram_block_rewrite_steps_n5_fp(monkeypatch, attempt_raising_cell, expect):
    # the blocks of each level k >= 1 are built once per process, each on a
    # parameter-ring algebra of its own: one product per v in B_{k,n} and
    # one straightening per pair v <= u, their steps counted; level 2
    # raises at its second product.  The two F_p algebras make only level
    # 0's product 1 . 1, one step each, and no straightening
    counts = Counter()

    def counted(method):
        def call(alg, *args):
            try:
                return method(alg, *args)
            finally:
                ring = "params" if alg.field is ParamPoly else "fp"
                counts[ring, method.__name__] += 1
                counts[ring, "steps"] += alg._steps

        return call

    monkeypatch.setattr(QBrAlgebra, "mul", counted(QBrAlgebra.mul))
    monkeypatch.setattr(QBrAlgebra, "straighten", counted(QBrAlgebra.straighten))
    _universal_blocks.cache_clear()
    for spec in (FP101, Specialization.prime_field(103, 17, 44)):
        cell = Cellular(QBrAlgebra(5, spec=spec))
        for k, lam in cell.labels():
            if (k, lam) == (2, (1,)) and not attempt_raising_cell:
                continue
            try:
                cell.gram(k, lam)
            except InternalInconsistency:
                assert (k, lam) == (2, (1,))
    products = 10 + (2 if attempt_raising_cell else 0)
    assert counts == {
        ("params", "mul"): products, ("params", "straighten"): 55, ("params", "steps"): expect,
        ("fp", "mul"): 2, ("fp", "steps"): 2,
    }


@pytest.mark.parametrize("n", [3, 4])
def test_emul_at_level_zero_is_the_e_atom(n):
    # e_(0) = 1, so e_(0) g_w e is the state the E atom makes of (0, 0, w)
    alg = QBrAlgebra(n, spec=FP101)
    for w in range(len(alg._T.perms)):
        assert alg._emul(0, w) == alg._apply_atom({(0, 0, w): alg._one}, ("E",)) == {(w, 1, 0): 1}


def left_gen_states(alg, i, states, inverse):
    """g_i states, or g_i^{-1} states, straight from the left descents of
    each A: the left action written out, as an oracle for the engine's
    ``_lmul``, which conjugates the right action by the involution."""
    T = alg._T
    out = {}
    for (A, k, w), c in states.items():
        sA = T.lmul[i][A]
        if bool(T.ldes[A] >> i & 1) == inverse:
            _acc(out, (sA, k, w), c)
        elif inverse:
            _acc(out, (sA, k, w), c * alg.Qinv)
            _acc(out, (A, k, w), c * (alg.Qinv - 1))
        else:
            _acc(out, (A, k, w), c * (alg.Q - 1))
            _acc(out, (sA, k, w), c * alg.Q)
    return out


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("inverse", [False, True])
def test_lmul_gen_states_matches_left_action(n, inverse):
    # the terms must come out in the oracle's order too: it decides which
    # memo entries a raising product fills, and so the pinned step counts
    alg = QBrAlgebra(n, spec=FP101)
    T, rng = alg._T, random.Random(n)
    codes = range(len(T.perms))
    for _ in range(10):
        for i in range(1, n):
            states = {}
            for _ in range(rng.randrange(1, 12)):
                A, k, w = rng.choice(codes), rng.randrange(n // 2 + 1), rng.choice(codes)
                _acc(states, (A, k, w), alg.field.from_int(rng.randrange(1, 101)))
                if rng.random() < 0.5:  # the partner g_{s_i A}, so terms merge
                    _acc(states, (T.lmul[i][A], k, w), alg.field.from_int(rng.randrange(1, 101)))
            alg._steps = 0
            f = alg.field
            atom = ("gi" if inverse else "g", i)
            out = alg._lmul([atom], {s: f.inner(c) for s, c in states.items()})
            out = {s: f.outer(c) for s, c in out.items()}
            assert list(out.items()) == list(left_gen_states(alg, i, states, inverse).items())
            assert alg._steps == len(states)


def left_e_states(alg, states):
    """e states by e g_A e_(k) g_w = (e_(k) g_{A^{-1}} e)* g_w, with the
    star taken on the states of ``_emul`` and g_w multiplied on the right
    in the Hecke algebra; k >= 1, as ``_emul`` does not take k = 0.
    Internal coefficients, as in the engine."""
    T, out = alg._T, {}
    for (A, k, w), c in states.items():
        for (B, k3, w3), ce in alg._emul(k, T.inv[A]).items():
            for y, cy in alg.hecke.rmul_perm({T.inv[B]: ce}, w).items():
                alg._acc(out, (T.inv[w3], k3, y), c * cy)
    return out


def outcome(f, ordered=True):
    try:
        out = f()
    except InternalInconsistency as exc:
        return str(exc)
    return list(out.items()) if ordered else out


@pytest.mark.parametrize("n", [4, 5, 6])
def test_lmul_e_matches_star_of_emul(n):
    # the E atom through the involution against the formula it replaced:
    # equal on random states, and in the same order on every state dict the
    # level shift hands it, where the order decides which memo entries a
    # raising product fills; both raise alike at the keys no rule closes
    alg = QBrAlgebra(n, spec=FP101)
    T, f, rng = alg._T, alg.field, random.Random(n)
    codes = range(len(T.perms))
    for _ in range(30):
        states = {}
        for _ in range(rng.randrange(1, 5)):
            s = (rng.choice(codes), rng.randrange(1, n // 2 + 1), rng.choice(codes))
            f.acc(states, s, f.inner(f.from_int(rng.randrange(1, 101))))
        alg._steps = 0
        got = outcome(lambda: alg._lmul([("E",)], states), ordered=False)
        assert got == outcome(lambda: left_e_states(alg, states), ordered=False)
    shifted = 0
    for k in range(2, n // 2 + 1):
        head = alg._ek_atoms(k)[:4 * k - 3]
        for w in alg._minrep[k]:
            alg._steps = 0
            try:
                states = alg._lmul(head[1:], alg._emul(k - 1, w))
            except InternalInconsistency:
                continue
            got = outcome(lambda: alg._lmul(head[:1], states))
            assert got == outcome(lambda: left_e_states(alg, states))
            shifted += 1
    assert shifted == {4: 3, 5: 15, 6: 103}[n]


def test_star_takes_no_rewriting_step(monkeypatch):
    # star relabels normal indices: after a product that used all 62 of the
    # budget it neither resets the count nor adds to it
    monkeypatch.setenv("QBR_MAX_REWRITE_STEPS", "62")
    alg = QBrAlgebra(4, spec=FP101)
    one, ident, s2, v = FP101.one(), alg.id, sg.gen(4, 2), (1, 2, 0, 3)
    alg.mul({(0, ident, (2, 0, 3, 1), ident): one}, {(2, v, ident, v): one})
    assert alg._steps == 62
    assert alg.star({(1, ident, ident, s2): one}) == {(1, s2, ident, ident): one}
    assert alg._steps == 62


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_star_flips_brauer_diagrams_at_q1(n):
    # an independent oracle: at q = 1 the involution flips a Brauer diagram
    # top to bottom, so the diagram of star's index is the flipped diagram
    # of the index itself
    alg = QBrAlgebra(n, spec=FP101)
    one = FP101.one()
    for idx in alg.basis_indices():
        (key,) = alg.star({idx: one})
        assert bd.normal_index_diagram(n, key) == bd.star(bd.normal_index_diagram(n, idx), n)


def test_fp_algebra_rejects_values_of_another_prime():
    # the engine converts coefficients into ints mod p at entry, with the
    # same check as Fp arithmetic: an F_7 value is no F_101 value
    alg = QBrAlgebra(3, spec=FP101)
    foreign = {(0, alg.id, alg.id, alg.id): Fp(7, 3)}
    with pytest.raises(TypeError):
        alg.mul(foreign, alg.g(1))
    with pytest.raises(TypeError):
        alg.mul(alg.g(1), foreign)
    with pytest.raises(TypeError):
        alg.star(foreign)


def test_rewrite_cycle_messages_n5():
    alg = QBrAlgebra(5, spec=FP101)
    with pytest.raises(InternalInconsistency) as exc:
        Cellular(alg).gram(2, (1,))
    assert str(exc.value) == "rewriting cycle at e_(2) g_(2, 3, 0, 4, 1) e"
    # a key met again while it is being computed: the straightening
    # recursion shares the memo and cycle check of the one above
    alg = QBrAlgebra(5, spec=FP101)
    x = alg._T.code[(1, 0, 3, 2, 4)]
    alg._red_stack.add((2, x))
    with pytest.raises(InternalInconsistency) as exc:
        alg._red(2, x)
    assert str(exc.value) == "straightening cycle at e_(2) g_(1, 0, 3, 2, 4)"
    assert (2, x) not in alg._red_memo


# -- the core table ----------------------------------------------------------------------


def wrong_core_rows(n):
    """(key, terms) of one wrong row per change of a row of ``_CORES`` that
    fits in n letters: the Q exponent of its last term raised, and, for a
    row of several terms, the row without its first term."""
    for (k, w), terms in qb._CORES.items():
        if len(w) <= n:
            i, j, l, k3, w3 = terms[-1]
            yield (k, w), terms[:-1] + ((i + 1, j, l, k3, w3),)
            if len(terms) > 1:
                yield (k, w), terms[1:]


def associativity_failures(n, triples=200):
    """How many of ``triples`` random triples of basis elements of Br_n over
    F_101 (q = 3, r = 5) are not associative, (x y) z != x (y z)."""
    alg = QBrAlgebra(n, spec=FP101)
    rng = random.Random(n)
    idxs = alg.basis_indices()
    failures = 0
    for _ in range(triples):
        x, y, z = (basis_elt(alg, rng.choice(idxs)) for _ in range(3))
        failures += alg.mul(alg.mul(x, y), z) != alg.mul(x, alg.mul(y, z))
    return failures


@pytest.mark.parametrize("n", [4])
def test_random_associativity_catches_every_wrong_core_row(monkeypatch, n):
    # the oracle of the table: the true rows pass, and each wrong row fails
    # some triple (at n = 4, 98 for s_2's b -> Qb, 83 for z_2's Q^2 e_(2)
    # -> Q^3 e_(2), 110 for z_2 without bQ(Q-1) e g_3, of 200).  _cosets
    # maps the rows to codes once per process, so it is cleared around each
    assert associativity_failures(n) == 0
    wrong = list(wrong_core_rows(n))
    assert len(wrong) == {4: 3}[n]
    for key, terms in wrong:
        monkeypatch.setitem(qb._CORES, key, terms)
        qb._cosets.cache_clear()
        try:
            assert associativity_failures(n) > 0, (key, terms)
        finally:
            monkeypatch.undo()
            qb._cosets.cache_clear()
    assert associativity_failures(n) == 0


# -- the key scan ----------------------------------------------------------------------


def key_scan(n):
    """(keys, raising, levels) of the key scan at n: ``_emul(k, w)`` on one
    parameter-ring algebra for every level k >= 1 and every minimal coset
    representative w of that level, ``raising`` the keys (k, permutation
    of w) whose product raises InternalInconsistency and ``levels`` their
    levels."""
    alg = QBrAlgebra.over_parameters(n)
    keys, raising = 0, []
    for k in range(1, n // 2 + 1):
        for w in sorted(alg._minrep[k]):
            keys += 1
            try:
                alg._emul(k, w)
            except InternalInconsistency:
                raising.append((k, alg._T.perms[w]))
    return keys, raising, sorted({k for k, _ in raising})


@pytest.mark.parametrize(
    "n,keys,raising,levels",
    [(2, 1, 0, []), (3, 3, 0, []), (4, 15, 0, []), (5, 75, 2, [2]), (6, 465, 34, [2, 3]), (7, 3255, 300, [2, 3])],
)
def test_key_scan_pins_the_products_that_close(n, keys, raising, levels):
    # "total at n" as a number per n: e_(k) g_w e for every key of every
    # level k >= 1 (n! / (2^k k!) keys at level k); the keys that raise pin
    # today's defect from n = 5 on, and a core that closes them re-aims the
    # pin.  One algebra per n gives the counts that a fresh one per key gives
    got = key_scan(n)
    assert (got[0], len(got[1]), got[2]) == (keys, raising, levels)
    if n == 5:
        assert got[1] == [(2, (2, 3, 0, 4, 1)), (2, (2, 3, 1, 4, 0))]
