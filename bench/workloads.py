"""Inputs, tasks and output checks of the benchmark workloads.

A workload turns a seed into inputs and runs them through the public API of
``qbrauer.qbrauer``, ``qbrauer.cellular`` and ``qbrauer.coefficients``.  A
run is a number of passes; every pass repeats the same tasks in the same
order on algebras built afresh, so each task is timed once per pass.

grid_fp       A pass is every (r, q) point of the F_11 and F_13 grids at
              n = 3 and of the F_13 grid at n = 4, two-parameter version, in
              an order drawn from the seed.  A point is one task and repeats
              what ``qbrauer semisimple --grid all`` does for it: build a
              fresh algebra over F_p, decide semisimplicity from the Gram
              determinants, and at n = 3 evaluate the closed-form criterion.
              Points where a denominator vanishes or a = 0 are excluded
              outcomes, not tasks.
gram_generic  A pass is every cell (k, lam) at n = 3 and n = 4 in all four
              versions over the generic field.  The seed draws how the eight
              algebras' cells interleave; each algebra takes its cells in
              labels() order.  A cell is one task and computes gram,
              gram_det and radical_dim, as ``qbrauer gram`` does.
cells_n5_fp   A pass is the 11 cells of each of two n = 5 algebras over F_p,
              each computing its Gram matrix, determinant and rank.  The
              seed draws the two (p, q, r) from N5_POOL, whose outputs are
              recorded.  Cell (2, (1)) raises InternalInconsistency at every
              recorded point; it stays in the pass and counts as a failed
              task.

Every task output is compared with the output recorded from the source tree
the expectations were made with (``expected/<workload>.json``, written by
``record.py``) and with an independent oracle where one exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from qbrauer import cellular, coefficients, hecke
from qbrauer import qbrauer as qb

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

EXCLUDED = "excluded"

GRID_POINTS = tuple(
    (n, p, r, q)
    for n, primes in ((3, (11, 13)), (4, (13,)))
    for p in primes
    for r in range(1, p)
    for q in range(1, p)
)

VERSIONS = (
    ("two_param", None),
    ("one_param", None),
    ("n_version", 3),
    ("classical", None),
)

# versions with a closed-form semisimplicity criterion at n = 3
CLOSED_FORM_VERSIONS = ("two_param", "one_param", "n_version")

# (p, q, r) with p > 100 and q^2 != 1, r^2 != 1, so every point is admissible
N5_POOL = (
    (101, 3, 5),
    (103, 17, 44),
    (107, 62, 9),
    (109, 25, 71),
    (113, 40, 86),
    (127, 7, 101),
    (131, 58, 23),
    (137, 96, 34),
    (139, 12, 115),
    (149, 81, 60),
    (151, 33, 142),
    (157, 120, 19),
)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def lam_text(lam):
    return ",".join(str(x) for x in lam)


def load_expected(name):
    path = EXPECTED_DIR / f"{name}.json"
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """Base of the workloads: passes of (key, task) pairs plus checks.

    ``next_pass`` builds the state a pass shares (its algebras) outside any
    task's latency; ``setup`` builds the first pass, which is what a user
    waits for before the first task can start.  ``check`` turns a task's
    result into its recorded outcome text and a list of oracle problems;
    ``finish_pass`` returns problems only visible once a pass is complete.
    """

    name = ""

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}/{seed}")
        self._pending = None

    def setup(self):
        self._pending = self._make_pass()

    def next_pass(self):
        tasks, self._pending = self._pending, None
        return tasks if tasks is not None else self._make_pass()

    def _make_pass(self):
        raise NotImplementedError

    def check(self, key, result):
        raise NotImplementedError

    def finish_pass(self):
        return []

    def every_input(self):
        """Passes that together run every input the workload can draw once."""
        yield self._make_pass()


class GridFp(Workload):
    name = "grid_fp"

    def __init__(self, seed):
        super().__init__(seed)
        self._order = list(GRID_POINTS)
        self.rng.shuffle(self._order)

    def setup(self):
        super().setup()
        # the first admissible algebra of each n fills the process-wide
        # tables, the same ones whatever the seed; every task still builds
        # its own, as the CLI does
        for n in (3, 4):
            next(pt for pt in GRID_POINTS if pt[0] == n and _grid_algebra(*pt) is not None)

    def _make_pass(self):
        return [(_grid_key(*pt), _bind(_grid_task, pt)) for pt in self._order]

    def check(self, key, result):
        if result == EXCLUDED:
            return EXCLUDED, []
        n, cell, verdict, witness, cf = result
        problems = []
        if n == 3 and cf != verdict:
            problems.append(f"{key}: verdict {verdict} but closed form {cf}")
        if witness is not None and not cell.radical_dim(*witness):
            problems.append(f"{key}: witness {witness} has a nonsingular form")
        wl = "" if witness is None else f"{witness[0]}:{lam_text(witness[1]) or '-'}"
        return f"{verdict}|{wl}|{cf}", problems


def _grid_key(n, p, r, q):
    return f"n={n} p={p} r={r} q={q}"


def _grid_algebra(n, p, r, q):
    try:
        spec = coefficients.Specialization.prime_field(p, q, r)
        alg = qb.QBrAlgebra(n, spec=spec)
    except coefficients.DenominatorVanishes:
        return None
    return None if alg.a.is_zero() else alg


def _grid_task(n, p, r, q):
    alg = _grid_algebra(n, p, r, q)
    if alg is None:
        return EXCLUDED
    cell = cellular.Cellular(alg)
    try:
        verdict, witness = cell.is_semisimple()
        cf = None
        if n == 3:
            cf, _ = cellular.closed_form_criterion(n, "two_param", alg.spec)
    except coefficients.DenominatorVanishes:
        return EXCLUDED
    return n, cell, verdict, witness, cf


class GramGeneric(Workload):
    name = "gram_generic"

    def __init__(self, seed):
        super().__init__(seed)
        self._order = None

    def _make_pass(self):
        self._cells = {}
        self._dets = {}
        queues = {}
        for n in (3, 4):
            for version, N in VERSIONS:
                cell = cellular.Cellular(qb.QBrAlgebra(n, version=version, N=N))
                self._cells[(n, version)] = cell
                queues[(n, version)] = [
                    (f"n={n} {version} k={k} lam={lam_text(lam)}",
                     _bind(_gram_task, (cell, n, version, k, lam)))
                    for k, lam in cell.labels()
                ]
        if self._order is None:
            # the seed interleaves the algebras; each keeps its cells in
            # labels() order, so which cell fills an algebra's memos is the
            # same in every run
            self._order = [alg for alg, queue in queues.items() for _ in queue]
            self.rng.shuffle(self._order)
        return [queues[alg].pop(0) for alg in self._order]

    def check(self, key, result):
        n, version, k, lam, g, d, rad = result
        self._dets[(n, version, k, lam)] = d
        problems = []
        if d.is_zero() != (rad > 0):
            problems.append(f"{key}: det {d!r} but radical dimension {rad}")
        text = ";".join(repr(c) for row in g for c in row)
        return f"{len(g)}|{text}|{d!r}|{rad}", problems

    def finish_pass(self):
        # at n = 3 the closed form decides semisimplicity, which holds iff
        # every generic Gram determinant is nonzero
        problems = []
        for version, N in VERSIONS:
            if version not in CLOSED_FORM_VERSIONS:
                continue
            labels = self._cells[(3, version)].labels()
            dets = [self._dets.get((3, version, k, lam)) for k, lam in labels]
            if any(d is None for d in dets):
                continue
            spec = coefficients.Specialization.generic()
            cf, _ = cellular.closed_form_criterion(3, version, spec, N=N)
            gram = all(not d.is_zero() for d in dets)
            if cf != gram:
                problems.append(f"n=3 {version}: closed form {cf}, Gram {gram}")
        return problems


def _gram_task(cell, n, version, k, lam):
    g = cell.gram(k, lam)
    d = cell.gram_det(k, lam)
    rad = cell.radical_dim(k, lam)
    return n, version, k, lam, g, d, rad


class CellsN5Fp(Workload):
    name = "cells_n5_fp"

    def __init__(self, seed):
        super().__init__(seed)
        self._points = self.rng.sample(N5_POOL, 2)

    def _make_pass(self):
        return [task for pt in self._points for task in self._pass_at(*pt)]

    def every_input(self):
        for pt in N5_POOL:
            yield self._pass_at(*pt)

    def _pass_at(self, p, q, r):
        alg = qb.QBrAlgebra(5, spec=coefficients.Specialization.prime_field(p, q, r))
        cell = cellular.Cellular(alg)
        return [
            (f"p={p} q={q} r={r} k={k} lam={lam_text(lam)}",
             _bind(_n5_task, (cell, k, lam)))
            for k, lam in cell.labels()
        ]

    def check(self, key, result):
        cell, k, lam, g, d, rk = result
        problems = []
        e = coefficients.quantum_char(cell.alg.Q)
        nonzero = any(not c.is_zero() for row in g for c in row)
        if nonzero != hecke.is_restricted(lam, e):
            problems.append(f"{key}: form nonzero {nonzero} but e(Q) = {e}")
        if d.is_zero() != (rk < len(g)):
            problems.append(f"{key}: det {d!r} but rank {rk} of {len(g)}")
        text = ";".join(repr(c) for row in g for c in row)
        return f"{len(g)}|{text}|{d!r}|{rk}", problems


def _n5_task(cell, k, lam):
    g = cell.gram(k, lam)
    d = cell.gram_det(k, lam)
    rk = len(g) - cell.radical_dim(k, lam)
    return cell, k, lam, g, d, rk


def _bind(fn, args):
    return lambda: fn(*args)


WORKLOADS = {w.name: w for w in (GridFp, GramGeneric, CellsN5Fp)}
