import numpy as np
import pytest

import pwexp as pw
from pwexp.simulation import sim_followup

DESIGN_KW = dict(rand_rate=10, total_sample=60, drop_rate=0.03)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


class TestSimFollowupThreads:
    def test_lambda_hook_rejected_before_pool(self, monkeypatch):
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=lambda n, rng: rng.exponential(10.0, n)))
        monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
        with pytest.raises(ValueError, match="module-level callables"):
            sim_followup(design, at=[5.0], rep=2, seed=0, threads=2)

    def test_lambda_statistic_rejected_before_pool(self, monkeypatch):
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
        monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
        with pytest.raises(ValueError, match="module-level callables"):
            sim_followup(design, at=[5.0], stats=[lambda x: 0.0], rep=2, seed=0, threads=2)

    def test_lambda_hook_runs_serially(self):
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=lambda n, rng: rng.exponential(10.0, n)))
        res = sim_followup(design, at=[5.0], stats=[np.mean], rep=2, seed=0, threads=1)
        assert res.overall[0]["subjects"] == 50.0
