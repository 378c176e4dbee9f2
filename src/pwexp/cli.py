"""Command-line front end: simulate, cut, km, fit, cv, boot, predict,
followup, and dist subcommands over CSV/JSON files.

Every randomized subcommand requires an explicit --seed, outputs are
reproducible from the manifest written next to each output file, and
--threads (boot, cv, predict, followup) never changes numeric results.
fit runs in one process.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import distribution as dist
from .errors import PwexpError
from .estimation import FitConfig, FitResult, fit
from .prediction import (
    AccrualPlan,
    TrialSnapshot,
    event_interval,
    predict_events,
    timeline_for_events,
    write_interval_csv,
)
from .resampling import BootFit, boot_fit, cv_loglik
from .simulation import FOLLOWUP_TYPES, ArmModel, TrialDesign, prop_above, sim_followup, simulate_trial
from .survdata import _format_column, cut_data, km_fit, read_survival_csv, write_table


_THREADS_HELP = ("workers: this process computes one share of the replicates and, on Linux, "
                 "forks THREADS - 1 processes for the others; elsewhere all run in this process")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_pairs(text: str) -> list[tuple[str, float]]:
    # "trt=1,con=1"
    out = []
    for tok in text.split(","):
        name, _, w = tok.strip().partition("=")
        out.append((name, float(w) if w else 1.0))
    return out


def _parse_dist_spec(text: str) -> tuple[str | None, dist.PweModel]:
    # "[group=]rate1,rate2,...[@break1,break2,...]"
    name = None
    if "=" in text:
        name, _, text = text.partition("=")
        name = name.strip()
    rates_part, _, breaks_part = text.partition("@")
    model = dist.PweModel(tuple(_parse_floats(rates_part)), tuple(_parse_floats(breaks_part)))
    return name, model


def _parse_stats(text: str):
    stats = []
    for name in (t.strip() for t in text.split(",")):
        if not name:
            continue
        if name == "mean":
            stats.append(np.mean)
        elif name == "median":
            stats.append(np.median)
        elif name == "sum":
            stats.append(np.sum)
        elif name.startswith("prop_"):
            stats.append(prop_above(float(name[len("prop_"):])))
        else:
            raise ValueError(f"unknown statistic {name!r} (use mean, median, sum, prop_<t>)")
    return stats


def _write_manifest(out_path: str, subcommand: str, argv: list[str]):
    with open(f"{out_path}.manifest.json", "w") as fh:
        json.dump({"subcommand": subcommand, "argv": argv}, fh, indent=2)
        fh.write("\n")


def _load_model(path: str):
    with open(path) as fh:
        d = json.load(fh)
    return BootFit.from_dict(d) if isinstance(d, dict) and "replicates" in d else FitResult.from_dict(d)


def _add_data_flags(p: argparse.ArgumentParser, calendar: bool = False):
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    p.add_argument("--time-col", default="followT")
    p.add_argument("--event-col", default="event")
    if calendar:
        p.add_argument("--rand-time-col", default="randT")
        p.add_argument("--follow-abs-time-col", default="followT_abs")
        p.add_argument("--censor-reason-col", default="censor_reason")
        p.add_argument("--id-col", default="ID")


_CALENDAR_COLS = ("rand_time_col", "follow_abs_time_col", "censor_reason_col", "id_col")


def _read_data(args, columns=()):
    """The input sample: time, event and the named optional columns."""
    kw = {c: getattr(args, c) for c in columns}
    return read_survival_csv(args.infile, time_col=args.time_col, event_col=args.event_col, **kw)


def _add_fitconfig_flags(p: argparse.ArgumentParser):
    p.add_argument("--nbreak", type=int, default=None)
    p.add_argument("--fixed_breakpoints", type=str, default="")
    p.add_argument("--optimizer", choices=("bfs", "ols", "hybrid"), default="hybrid")
    p.add_argument("--max_set", type=int, default=10000)
    p.add_argument("--min_pt_tail", type=int, default=5)
    p.add_argument("--exclude_int", type=str, default=None, help="lo,hi (hi may be Inf)")
    p.add_argument("--seed", type=int, required=True)


def _config_from(args) -> FitConfig:
    exclude = tuple(_parse_floats(args.exclude_int)) if args.exclude_int else None
    return FitConfig(
        nbreak=args.nbreak,
        fixed_breakpoints=tuple(_parse_floats(args.fixed_breakpoints)),
        optimizer=args.optimizer,
        max_set=args.max_set,
        min_pt_tail=args.min_pt_tail,
        exclude_int=exclude,
        seed=args.seed,
    )


def _add_design_flags(p: argparse.ArgumentParser):
    p.add_argument("--rand_rate", type=float, default=None)
    p.add_argument("--total_sample", type=int, default=None)
    p.add_argument("--n_rand", type=str, default=None, help="per-month counts, e.g. 15,15,21")
    p.add_argument("--groups", type=str, default=None, help="name=weight[,name=weight...]")
    p.add_argument("--strata", type=str, default=None)
    p.add_argument("--event", action="append", required=True,
                   help="[group=]rates[@breaks], e.g. trt=0.1,0.2@5")
    p.add_argument("--death", action="append", default=[])
    p.add_argument("--drop_rate", type=float, default=None)
    p.add_argument("--iid_allocation", action="store_true")
    p.add_argument("--seed", type=int, required=True)


def _design_from(args) -> TrialDesign:
    groups = tuple(_parse_pairs(args.groups)) if args.groups else (("all", 1.0),)
    strata = tuple(_parse_pairs(args.strata)) if args.strata else (("all", 1.0),)
    events = dict(_parse_dist_spec(s) for s in args.event)
    deaths = dict(_parse_dist_spec(s) for s in args.death)
    if None in events and len(events) > 1:
        raise ValueError("mix of named and unnamed --event specs")
    if None in events:
        dists: ArmModel | dict = ArmModel(event=events[None], death=deaths.get(None))
    else:
        dists = {
            g: ArmModel(event=events[g], death=deaths.get(g))
            for g, _ in groups
        }
        missing = [g for g, _ in groups if g not in events]
        if missing:
            raise ValueError(f"no --event spec for groups {missing}")
    return TrialDesign(
        rand_rate=args.rand_rate,
        total_sample=args.total_sample,
        n_rand=tuple(_parse_floats(args.n_rand)) if args.n_rand else None,
        groups=groups,
        strata=strata,
        dists=dists,
        drop_rate=args.drop_rate,
        iid_allocation=args.iid_allocation,
    )


def _print_fit_summary(res: FitResult, file=None):
    r = len(res.model.breakpoints)
    names = [f"brk{i + 1}" for i in range(r)] + [f"lam{i + 1}" for i in range(r + 1)]
    names += ["likelihood", "AIC", "BIC"]
    vals = [*res.model.breakpoints, *res.model.rates, res.loglik, res.aic, res.bic]
    cells = [f"{v:.7g}" for v in vals]
    widths = [max(len(n), len(c)) for n, c in zip(names, cells)]
    print(" ".join(n.rjust(w) for n, w in zip(names, widths)), file=file)
    print(" ".join(c.rjust(w) for c, w in zip(cells, widths)), file=file)


def _write_curve_csv(path, model, upto: float, points: int = 200):
    ts = np.linspace(0.0, upto, points + 1)
    write_table(path, {"time": ts, "survival": np.atleast_1d(dist.survival(model, ts))})


# ---------------------------------------------------------------------------
# subcommand runners: each is a generator that yields every output path
# right after writing it, so that main writes the path's manifest


def _cmd_dist(args):
    model = dist.PweModel(tuple(_parse_floats(args.rates)), tuple(_parse_floats(args.breaks)))
    fn = {
        "survival": dist.survival,
        "density": dist.density,
        "cdf": dist.cdf,
        "hazard": dist.hazard,
        "quantile": dist.quantile,
    }[args.fn]
    at = np.asarray(_parse_floats(args.at))
    if args.given is not None:
        cond = {
            "survival": dist.conditional_survival,
            "cdf": dist.conditional_cdf,
            "quantile": dist.conditional_quantile,
        }
        if args.fn not in cond:
            raise ValueError(f"--given supports survival, cdf, quantile; not {args.fn}")
        vals = np.atleast_1d(cond[args.fn](model, at, args.given))
    else:
        vals = np.atleast_1d(fn(model, at))
    if args.out:
        write_table(args.out, {"at": at, "value": vals})
        yield args.out
    else:
        rows = map(",".join, zip(_format_column(at), _format_column(vals)))
        print("\n".join(["at,value", *rows]))


def _cmd_simulate(args):
    frame = simulate_trial(_design_from(args), args.seed)
    frame.write_csv(args.out)
    yield args.out
    print(f"wrote {len(frame)} subjects to {args.out}")


def _cmd_cut(args):
    data = _read_data(args, _CALENDAR_COLS)
    out = cut_data(data, args.cut)
    write_table(args.out, {
        args.id_col: out.ids if out.ids is not None else np.arange(1, len(out) + 1),
        args.rand_time_col: out.rand_time,
        args.time_col: out.time,
        args.event_col: out.event,
        args.follow_abs_time_col: out.follow_abs_time,
        args.censor_reason_col: out.censor_reason,
    })
    yield args.out
    print(f"retained {len(out)} of {len(data)} subjects at cut {args.cut:g}")


def _cmd_km(args):
    curve = km_fit(_read_data(args))
    write_table(args.out, {"time": curve.time, "survival": curve.survival})
    yield args.out


def _cmd_fit(args):
    data = _read_data(args)
    res = fit(data, _config_from(args))
    print(json.dumps(res.to_dict()))
    _print_fit_summary(res)
    if args.out:
        res.save_json(args.out)
        yield args.out
    if args.curve_out:
        _write_curve_csv(args.curve_out, res.model, upto=float(data.time.max()))
        yield args.curve_out


def _cmd_boot(args):
    data = _read_data(args)
    bf = boot_fit(data, _config_from(args), nsim=args.nsim, seed=args.seed,
                  threads=args.threads)
    bf.save_json(args.out)
    yield args.out
    print(f"{len(bf.replicates)} of {bf.nsim} bootstrap replicates fitted")


def _cmd_cv(args):
    data = _read_data(args)
    cv = cv_loglik(data, _config_from(args), nsim=args.nsim, seed=args.seed,
                   threads=args.threads)
    cv.save_csv(args.out)
    yield args.out
    print(f"median CV log-likelihood {np.median(cv.values):.4f} over {len(cv.values)} splits")


def _cmd_predict(args):
    # what TrialSnapshot.from_cut_sample reads; --id-col and
    # --follow-abs-time-col are accepted but not needed
    data = _read_data(args, ("rand_time_col", "censor_reason_col"))
    accrual = AccrualPlan(
        n_remaining=args.n_remaining,
        rate=args.rate,
        monthly_counts=tuple(_parse_floats(args.monthly_counts)) if args.monthly_counts else None,
    )
    if (args.timeline_at is None) != (args.timeline_out is None):
        raise ValueError("--timeline_at and --timeline_out go together")
    snap = TrialSnapshot.from_cut_sample(data, args.analysis_time, accrual)
    censor = _load_model(args.censor_model) if args.censor_model else None
    ens = predict_events(
        _load_model(args.model), censor, snap,
        n_each=args.n_each, seed=args.seed, horizon=args.horizon,
        grid_points=args.grid_points, threads=args.threads,
    )
    eval_at = _parse_floats(args.eval_at)
    if args.xyswitch:
        rows = timeline_for_events(ens, eval_at, level=args.level, kind=args.kind)
    else:
        rows = event_interval(ens, eval_at, level=args.level, kind=args.kind)
    write_interval_csv(rows, args.out, timeline=args.xyswitch)
    yield args.out
    if args.timeline_out:
        rows = timeline_for_events(ens, _parse_floats(args.timeline_at), level=args.level, kind=args.kind)
        write_interval_csv(rows, args.timeline_out, timeline=True)
        yield args.timeline_out


def _cmd_followup(args):
    res = sim_followup(
        _design_from(args),
        at=_parse_floats(args.at),
        type=args.type,
        stats=_parse_stats(args.stat) if args.stat else (),
        by_group=args.by_group,
        rep=args.rep,
        seed=args.seed,
        follow_up_endpoint=tuple(t.strip() for t in args.follow_up_endpoint.split(",")),
        threads=args.threads,
    )
    write_table(args.out, res.overall)
    yield args.out
    if args.by_group:
        group_out = args.group_out or f"{args.out}.by_group.csv"
        write_table(group_out, res.by_group)
        yield group_out


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pwexp", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("dist", help="evaluate a PWE distribution")
    p.add_argument("--rates", required=True)
    p.add_argument("--breaks", "--breakpoints", default="")
    p.add_argument("--at", required=True)
    p.add_argument("--given", type=float, default=None,
                   help="condition on survival past this time")
    p.add_argument("--out", default=None)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--survival", dest="fn", action="store_const", const="survival")
    g.add_argument("--density", dest="fn", action="store_const", const="density")
    g.add_argument("--cdf", dest="fn", action="store_const", const="cdf")
    g.add_argument("--hazard", dest="fn", action="store_const", const="hazard")
    g.add_argument("--quantile", dest="fn", action="store_const", const="quantile")
    p.set_defaults(fn="survival", runner=_cmd_dist)

    p = sub.add_parser("simulate", help="generate a synthetic trial CSV")
    _add_design_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(runner=_cmd_simulate)

    p = sub.add_parser("cut", help="re-censor a trial at a cut-off time")
    _add_data_flags(p, calendar=True)
    p.add_argument("--cut", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(runner=_cmd_cut)

    p = sub.add_parser("km", help="Kaplan-Meier curve table")
    _add_data_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(runner=_cmd_km)

    p = sub.add_parser("fit", help="fit a PWE model")
    _add_data_flags(p)
    _add_fitconfig_flags(p)
    p.add_argument("--out", default=None, help="write FitResult JSON here")
    p.add_argument("--curve-out", default=None, help="write fitted survival curve CSV")
    p.set_defaults(runner=_cmd_fit)

    p = sub.add_parser("boot", help="bootstrap a PWE fit")
    _add_data_flags(p)
    _add_fitconfig_flags(p)
    p.add_argument("--nsim", type=int, required=True)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(runner=_cmd_boot)

    p = sub.add_parser("cv", help="cross-validated log-likelihood")
    _add_data_flags(p)
    _add_fitconfig_flags(p)
    p.add_argument("--nsim", type=int, required=True)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(runner=_cmd_cv)

    p = sub.add_parser("predict", help="predict future events or timelines")
    _add_data_flags(p, calendar=True)
    p.add_argument("--model", required=True, help="FitResult or BootFit JSON")
    p.add_argument("--censor_model", default=None)
    p.add_argument("--analysis_time", type=float, required=True)
    p.add_argument("--n_remaining", type=int, default=0)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--monthly_counts", type=str, default=None)
    p.add_argument("--n_each", type=int, default=100)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--grid_points", type=int, default=200)
    p.add_argument("--eval_at", required=True)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--kind", choices=("confidence", "predictive"), default="confidence",
                   help="confidence: percentiles of the bootstrap replicates' exact expected curves "
                        "(needs a boot model); predictive: percentiles of the simulated draws")
    p.add_argument("--xyswitch", action="store_true",
                   help="invert: timeline for given event counts")
    p.add_argument("--timeline_at", default=None,
                   help="event counts for a second, timeline table from the same ensemble")
    p.add_argument("--timeline_out", default=None, help="write the --timeline_at table here")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(runner=_cmd_predict)

    p = sub.add_parser("followup", help="design-stage follow-up simulation")
    _add_design_flags(p)
    p.add_argument("--at", required=True)
    p.add_argument("--type", choices=FOLLOWUP_TYPES, default="calendar")
    p.add_argument("--stat", default="mean,median",
                   help="comma list of mean, median, sum, prop_<t>")
    p.add_argument("--by_group", action="store_true")
    p.add_argument("--rep", type=int, default=100)
    p.add_argument("--follow_up_endpoint", default="cut,drop_out,death")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.add_argument("--group_out", default=None)
    p.set_defaults(runner=_cmd_followup)

    return top


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        for path in args.runner(args):
            _write_manifest(path, args.cmd, argv)
    except (PwexpError, ValueError, OSError) as exc:
        print(f"pwexp {args.cmd}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
