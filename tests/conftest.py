import numpy as np
import pytest

import pwexp as pw

TRUE_RATES = (0.1, 0.01, 0.2)
TRUE_BREAKS = (5.0, 14.0)
DROP_RATE = 0.03


@pytest.fixture(scope="session")
def true_event_model() -> pw.PweModel:
    return pw.PweModel(TRUE_RATES, TRUE_BREAKS)


def make_scenario(seed: int, n: int = 1000):
    """``n``-subject trial from the reference scenario, cut at 80% accrual.

    Returns (train sample, cut time, full frame).
    """
    design = pw.TrialDesign(
        rand_rate=20,
        total_sample=n,
        drop_rate=DROP_RATE,
        dists=pw.ArmModel(event=pw.PweModel(TRUE_RATES, TRUE_BREAKS)),
    )
    frame = pw.simulate_trial(design, seed=seed)
    cut = float(np.quantile(frame.randT, 0.8))
    train = pw.cut_data(frame.to_surv_sample(), cut)
    return train, cut, frame


@pytest.fixture(scope="session")
def scenario():
    return make_scenario(seed=2024)


@pytest.fixture(scope="session")
def scenario_train(scenario) -> pw.SurvSample:
    return scenario[0]
