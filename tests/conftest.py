import csv

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


def _parse_float(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return np.inf
    return float(text)


def reference_read_survival_csv(path, time_col="time", event_col="event", rand_time_col=None,
                                follow_abs_time_col=None, censor_reason_col=None, id_col=None):
    """The row-wise reader that ``read_survival_csv`` replaced: one
    ``csv.DictReader`` dict per row after the first line that is not blank,
    each cell parsed in Python. Returns the sample's fields as a dict."""
    needed = [c for c in (time_col, event_col, rand_time_col, follow_abs_time_col,
                          censor_reason_col, id_col) if c is not None]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(row for row in reader if row)  # blank lines before it skipped
        rows = list(csv.DictReader(fh, fieldnames=header))
    cols = {c: [row[c] for row in rows] for c in needed}
    as_floats = lambda c: np.array([_parse_float(v) for v in cols[c]]) if c else None
    reasons = None
    if censor_reason_col is not None:
        reasons = [None if r.strip() in ("", "NA") else r.strip() for r in cols[censor_reason_col]]
    return {
        "time": as_floats(time_col),
        "event": np.array([int(float(v)) for v in cols[event_col]], dtype=np.int8),
        "rand_time": as_floats(rand_time_col),
        "follow_abs_time": as_floats(follow_abs_time_col),
        "censor_reason": reasons,
        "ids": np.array(cols[id_col], dtype=str) if id_col else None,
    }


def assert_same_sample(sample, ref: dict):
    """``sample`` equals the reference reader's fields: float bytes, events,
    censor reasons, and ids as a str array of the reference's dtype."""
    for name in ("time", "rand_time", "follow_abs_time"):
        got, want = getattr(sample, name), ref[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert got.tobytes() == want.astype(float).tobytes(), name
    assert np.array_equal(sample.event, ref["event"]) and sample.event.dtype == np.int8
    reasons = None if sample.censor_reason is None else list(sample.censor_reason)
    assert reasons == ref["censor_reason"]
    assert (sample.ids is None) == (ref["ids"] is None)
    if ref["ids"] is not None:
        assert sample.ids.dtype == ref["ids"].dtype and sample.ids.tolist() == ref["ids"].tolist()
