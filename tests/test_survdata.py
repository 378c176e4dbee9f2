import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwexp.survdata import SurvSample, cut_data, km_fit, read_survival_csv

from conftest import assert_same_sample, reference_read_survival_csv


def ecdf_survival(times: np.ndarray, t: float) -> float:
    return float(np.mean(times > t))


def km_oracle(time: np.ndarray, event: np.ndarray):
    """Product-limit estimate, one distinct event time at a time."""
    steps = []
    s = 1.0
    for t in sorted(set(time[event == 1].tolist())):
        n_risk = int((time >= t).sum())
        n_ev = int(((time == t) & (event == 1)).sum())
        s *= 1.0 - n_ev / n_risk
        steps.append((t, s, n_risk, n_ev))
    return steps


class TestSurvSample:
    def test_basic_construction(self):
        s = SurvSample([1.0, 2.0], [1, 0])
        assert len(s) == 2 and s.n_events == 1

    def test_negative_time_rejected(self):
        for bad in (-1.0, -np.inf, np.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                SurvSample([1.0, bad], [1, 0])

    def test_bad_event_flag_rejected(self):
        for bad in (2, -1):
            with pytest.raises(ValueError, match="0 or 1"):
                SurvSample([1.0, 2.0], [1, bad])

    @pytest.mark.parametrize("bad", [np.array([0.5, 1.0]), np.array([256, 1]), np.array([257, 0]),
                                     np.array([-1, 1]), np.array([np.nan, 1.0])],
                             ids=["half", "256", "257", "minus_one", "nan"])
    def test_event_values_checked_before_the_cast(self, bad):
        """An int8 cast first would keep 0.5 as 0 and wrap 256 to 0 and 257
        to 1."""
        with pytest.raises(ValueError, match="0 or 1"):
            SurvSample([1.0, 2.0], bad)

    @pytest.mark.parametrize("event", [np.array([True, False]), np.array([1, 0]),
                                       np.array([1, 0], dtype=np.uint8), np.array([1.0, 0.0]),
                                       np.array([1.0, 0.0], dtype=np.float32)],
                             ids=["bool", "int", "uint8", "float", "float32"])
    def test_zero_one_columns_load(self, event):
        s = SurvSample([1.0, 2.0], event)
        assert s.event.dtype == np.int8 and s.event.tolist() == [1, 0]

    def test_infinite_time_needs_never_event(self):
        with pytest.raises(ValueError):
            SurvSample([np.inf], [0])
        s = SurvSample([np.inf], [0], censor_reason=np.array(["never_event"], dtype=object))
        assert np.isinf(s.time[0])

    def test_subset_keeps_fields(self):
        s = SurvSample([1.0, 2.0, 3.0], [1, 0, 1], rand_time=[0.1, 0.2, 0.3],
                       follow_abs_time=[1.1, 2.2, 3.3], ids=[10, 20, 30])
        sub = s.subset(np.array([0, 2]))
        assert list(sub.ids) == [10, 30]
        assert np.allclose(sub.rand_time, [0.1, 0.3])

    def test_columns_are_read_only(self):
        time, event = np.array([3.0, 1.0, 2.0]), np.array([1, 0, 1], dtype=np.int8)
        s = SurvSample(time, event)
        for column in (s.time, s.event, s.subset(slice(1, None)).time):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert time.flags.writeable and event.flags.writeable  # the arrays passed in

    def test_copies_are_read_only_and_sort_anew(self):
        s = SurvSample([3.0, 1.0, 2.0], [1, 0, 1], censor_reason=np.array([None, "cut", None]))
        s._sorted
        for c in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert not c.time.flags.writeable and not c.event.flags.writeable
            assert "_sorted" not in vars(c)
            assert c.time.tolist() == [3.0, 1.0, 2.0] and list(c.censor_reason) == [None, "cut", None]

    def test_sorted_view_is_built_once(self):
        s = SurvSample([3.0, 1.0, 2.0], [1, 0, 1])
        assert s._sorted is s._sorted
        assert s.subset(slice(None))._sorted is not s._sorted

    def test_km_curve_is_not_the_samples_view(self):
        s = SurvSample([1.0, 2.0, 2.0, 3.0], [1, 1, 0, 1])
        km = km_fit(s)
        km.time[:] = 0.0
        km.n_event[:] = 0
        again = km_fit(s)
        assert again.time.tolist() == [1.0, 2.0, 3.0] and again.n_event.tolist() == [1, 1, 1]


class TestKaplanMeier:
    def test_hand_example(self):
        curve = km_fit(SurvSample([1.0, 2.0, 3.0], [1, 0, 1]))
        assert np.allclose(curve.time, [1.0, 3.0])
        assert curve.survival[0] == pytest.approx(2.0 / 3.0)
        assert curve.survival[1] == 0.0
        assert list(curve.at_risk) == [3, 1]

    def test_all_events_distinct_times(self):
        n = 8
        times = np.arange(1.0, n + 1)
        curve = km_fit(SurvSample(times, np.ones(n, dtype=int)))
        assert np.allclose(curve.survival, (n - np.arange(1, n + 1)) / n)

    def test_all_censored_flat(self):
        curve = km_fit(SurvSample([1.0, 2.0, 3.0], [0, 0, 0]))
        assert len(curve.time) == 0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            km_fit(SurvSample([], []))

    def test_event_before_censor_on_ties(self):
        # the subject censored at t=1 is still at risk for the event at t=1
        curve = km_fit(SurvSample([1.0, 1.0], [1, 0]))
        assert curve.at_risk[0] == 2
        assert curve.survival[0] == pytest.approx(0.5)

    def test_matches_empirical_survival_without_censoring(self):
        rng = np.random.default_rng(3)
        times = rng.exponential(2.0, size=200)
        curve = km_fit(SurvSample(times, np.ones(200, dtype=int)))
        for t, s in zip(curve.time, curve.survival):
            assert s == pytest.approx(ecdf_survival(times, t), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.lists(st.tuples(st.floats(0.0, 20.0), st.sampled_from([0.5, 1.0, 2.0]),
                                             st.booleans()), min_size=1, max_size=60))
    def test_matches_product_limit_oracle(self, tied, obs):
        # tied draws put several events, and censorings, at the same time
        time = np.array([tied_time if tied else free_time for free_time, tied_time, _ in obs])
        event = np.array([e for *_, e in obs], dtype=int)
        curve = km_fit(SurvSample(time, event))
        steps = km_oracle(time, event)
        assert curve.time.tolist() == [t for t, *_ in steps]
        assert curve.survival.tolist() == [s for _, s, *_ in steps]
        assert curve.at_risk.tolist() == [n for *_, n, _ in steps]
        assert curve.n_event.tolist() == [d for *_, d in steps]

    def test_log_points_drop_zero_survival(self):
        curve = km_fit(SurvSample([1.0, 2.0, 3.0], [1, 0, 1]))
        x, y = curve.log_points()
        assert np.allclose(x, [1.0])
        assert np.allclose(y, np.log(2.0 / 3.0))


class TestCutData:
    def sample(self):
        # mirrors the worked data-cut example: a subject fully observed
        # before the cut stays as is; one running past the cut is
        # re-censored; one randomized after the cut is dropped
        return SurvSample(
            time=[0.9741066, 14.3753607, 2.0],
            event=[1, 1, 1],
            rand_time=[18.95190, 38.76302, 41.0],
            follow_abs_time=[19.92601, 53.13838, 43.0],
        )

    def test_reference_cut(self):
        cut = 39.99107
        out = cut_data(self.sample(), cut)
        assert len(out) == 2
        # subject 1 untouched
        assert out.time[0] == pytest.approx(0.9741066)
        assert out.event[0] == 1
        assert out.censor_reason[0] is None
        # subject 2 re-censored at the cut
        assert out.event[1] == 0
        assert out.time[1] == pytest.approx(cut - 38.76302)
        assert out.time[1] == pytest.approx(1.22805, abs=1e-4)
        assert out.censor_reason[1] == "cut"
        assert out.follow_abs_time[1] == pytest.approx(cut)

    def test_subject_randomized_after_cut_removed(self):
        out = cut_data(self.sample(), 39.99107)
        assert 41.0 not in out.rand_time

    def test_idempotent(self):
        once = cut_data(self.sample(), 39.99107)
        twice = cut_data(once, 39.99107)
        assert np.array_equal(once.time, twice.time)
        assert np.array_equal(once.event, twice.event)
        assert list(once.censor_reason) == list(twice.censor_reason)

    def test_follow_abs_bounded_by_cut(self):
        out = cut_data(self.sample(), 39.99107)
        assert np.all(out.follow_abs_time <= 39.99107)

    def test_never_event_recensored(self):
        s = SurvSample(
            time=[np.inf],
            event=[0],
            rand_time=[2.0],
            follow_abs_time=[np.inf],
            censor_reason=np.array(["never_event"], dtype=object),
        )
        out = cut_data(s, 10.0)
        assert out.time[0] == pytest.approx(8.0)
        assert out.censor_reason[0] == "cut"

    def test_missing_calendar_fields_rejected(self):
        with pytest.raises(ValueError):
            cut_data(SurvSample([1.0], [1]), 5.0)

    def test_bad_cut_rejected(self):
        with pytest.raises(ValueError):
            cut_data(self.sample(), 0.0)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t,ev,rt,fab,why\n"
            "1.5,1,0.5,2.0,NA\n"
            "Inf,0,1.0,Inf,never_event\n"
            "2.5,0,1.5,4.0,drop_out\n"
        )
        s = read_survival_csv(path, time_col="t", event_col="ev", rand_time_col="rt",
                              follow_abs_time_col="fab", censor_reason_col="why")
        assert len(s) == 3
        assert np.isinf(s.time[1])
        assert s.censor_reason[0] is None
        assert s.censor_reason[2] == "drop_out"

    def test_missing_column_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_survival_csv(path, time_col="t", event_col="b")

    def test_empty_file_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty CSV"):
            read_survival_csv(path)

    def test_blank_lines_before_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n\r\n\ntime,event\n1.5,1\n\n2.0,0\n", newline="")
        s = read_survival_csv(path)
        assert s.time.tolist() == [1.5, 2.0] and s.event.tolist() == [1, 0]
        path.write_text("\n\r\n")
        with pytest.raises(ValueError, match="empty CSV"):
            read_survival_csv(path)

    def test_header_only_is_empty_sample(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("ID,time,event,why\r\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = read_survival_csv(path, censor_reason_col="why", id_col="ID")
        assert len(s) == 0 and s.time.dtype == float and s.event.dtype == np.int8
        assert len(s.censor_reason) == 0 and len(s.ids) == 0

    @pytest.mark.parametrize("text", [
        "time,event\n1.5,1\n2.0\n",  # a row too short for the event column
        "time,event\n1.5,256\n",
        "time,event\n1.5,1.5\n",
        "time,event\n1.5,NA\n",
        "time,event\nNA,1\n",
        "time,event\n1.5 2,1\n",
    ])
    def test_malformed_cell_raises_value_error(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="d.csv"):
            read_survival_csv(path)

    def test_hash_is_not_a_comment(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('time,event,ID,why\n1.5,1,#3,#a\n2.5,0,"#4,x", # b \n')
        s = read_survival_csv(path, id_col="ID", censor_reason_col="why")
        assert list(s.ids) == ["#3", "#4,x"] and list(s.censor_reason) == ["#a", "# b"]


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "t.csv"


def _quoted(draw, text: str) -> str:
    # a cell must be quoted when it holds a delimiter, a quote or a line end
    if any(c in text for c in ',"\r\n') or draw(st.booleans()):
        return '"' + text.replace('"', '""') + '"'
    return text


_PAD = st.sampled_from(["", " ", "\t", "  "])
_INF = st.sampled_from(["Inf", "inf", "INF", "Infinity", "infinity"])
_SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, np.inf])
_TEXT = st.lists(st.sampled_from(list('ab_1#., "\t\n') + ["\r\n", "NA"]), max_size=6).map("".join)


def _float_cell(draw, x: float) -> str:
    if np.isinf(x):
        text = draw(st.sampled_from(["-"] if x < 0 else ["", "+"])) + draw(_INF)
    else:
        text = draw(st.sampled_from([repr(x), f"{x:.17e}"]))
    return _quoted(draw, draw(_PAD) + text + draw(_PAD))


@st.composite
def survival_tables(draw):
    """CSV text of a survival table in the many forms the cell rule allows,
    and the columns to ask for: (text, keyword arguments)."""
    n = draw(st.integers(0, 12))
    time = [draw(st.floats(min_value=0.0) | _SPECIAL) for _ in range(n)]
    other = lambda: [draw(st.floats(allow_nan=False) | _SPECIAL.map(lambda v: -v)) for _ in range(n)]
    reason = [draw(st.sampled_from(["", "NA", " NA ", "drop_out", " cut"]) | _TEXT) for _ in range(n)]
    reason = [" never_event" if np.isinf(t) else r for t, r in zip(time, reason)]
    cells = {
        "time": [_float_cell(draw, t) for t in time],
        "event": [_quoted(draw, draw(st.sampled_from(["0", "1", "1.0", "-0", " 1 ", "0.0"])))
                  for _ in range(n)],
        "rand time": [_float_cell(draw, x) for x in other()],
        "fab": [_float_cell(draw, x) for x in other()],
        "why": [_quoted(draw, r) for r in reason],
        "ID": [_quoted(draw, draw(_TEXT)) for _ in range(n)],
        "x,extra": [_quoted(draw, draw(_TEXT)) for _ in range(n)],
        "junk": [_quoted(draw, draw(st.sampled_from(["abc", "", "#3", "NA"]))) for _ in range(n)],
    }
    names = draw(st.permutations(list(cells)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(_quoted(draw, c) if "," in c else c for c in names)]
    lines += [",".join(cells[c][i] for c in names) for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    kw = dict(time_col="time", event_col="event")
    for key, col in (("rand_time_col", "rand time"), ("follow_abs_time_col", "fab"),
                     ("censor_reason_col", "why"), ("id_col", "ID")):
        if draw(st.booleans()):
            kw[key] = col
    if np.isinf(time).any():  # an infinite time needs its never_event reason
        kw["censor_reason_col"] = "why"
    return text, kw


@settings(max_examples=200, deadline=None)
@given(survival_tables())
def test_reads_as_row_wise_reference(table_path, table):
    text, kw = table
    table_path.write_bytes(text.encode())
    assert_same_sample(read_survival_csv(table_path, **kw),
                       reference_read_survival_csv(table_path, **kw))
