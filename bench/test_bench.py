"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py

The traced run must give the same outputs as the untraced one, leave the
output checks out of its figures and put back every attribute it patched; a
task that raises where an output was recorded must fail its check.  Small
slices of two workloads keep this quick.
"""

import pytest

import run
import tracer
import worker
import workloads
from qbrauer import coefficients


class SmallGrid(workloads.GridFp):
    def __init__(self, seed):
        super().__init__(seed)
        self._order = self._order[:40]


class SmallGram(workloads.GramGeneric):
    def _make_pass(self):
        return [t for t in super()._make_pass() if t[0].startswith("n=3 ")]


def patched_attributes():
    targets = [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.COUNTERS]
    for cls in (coefficients.RatFunc, coefficients.Fp):
        targets += [(cls, attr) for attr in tracer.OPERATORS]
    return {(owner, attr): vars(owner)[attr] for owner, attr in targets}


@pytest.mark.parametrize("workload", [SmallGrid, SmallGram])
def test_traced_run_matches_untraced_and_restores(workload):
    before = patched_attributes()
    plain = worker.run(workload(seed=3), passes=1)
    with tracer.Tracer() as tr:
        wl = workload(seed=3)
        wl.setup()
        traced = worker.run(wl, passes=1, tracer=tr)
    assert all(patched_attributes()[k] is v for k, v in before.items())
    assert plain["check_failures"] == traced["check_failures"] == 0
    assert traced["first_pass_digest"] == plain["first_pass_digest"]
    layers = traced["layers"]
    assert set(layers) == set(tracer.LAYER_METRICS)
    assert layers["qbrauer.mul_calls"][0] > 0
    assert layers["qbrauer.construct_calls"][0] > 0
    assert layers["cellular.det_calls"][0] > 0
    # only the checks call these: the grid oracle ranks the witness's form and
    # the gram oracle evaluates the closed form
    untraced = "cellular.rank_s" if workload is SmallGrid else "cellular.closed_form_s"
    assert layers[untraced][0] == 0


def test_raise_where_an_output_was_recorded_fails_the_check():
    class BrokenGram(SmallGram):
        def _make_pass(self):
            (key, _), *rest = super()._make_pass()
            return [(key, broken), *rest]

    def broken():
        raise ValueError("no Gram matrix")

    res = worker.run(BrokenGram(seed=3), passes=1)
    assert res["raised"] == {"ValueError": 1}
    assert res["check_failures"] == res["failed"] == 1
    assert "recorded" in res["problems"][0]


def test_tracer_restores_after_an_error():
    before = patched_attributes()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert patched_attributes() != before
            raise RuntimeError("stop")
    assert all(patched_attributes()[k] is v for k, v in before.items())


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(x) for x in range(100, 0, -1)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
