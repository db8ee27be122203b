"""The three workloads: inputs made from the seed, one round of timed
operations, and the checks on each operation's output.

Every fit runs its whole iteration budget (``tol=0``): the convergence
test reacts to lattice noise in the likelihood, so a free stopping point
would let the iteration count, not the code, set the time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from collections import defaultdict

import numpy as np

import geocens as gc
from geocens import cli

import oracles as orc
from oracles import CheckFailed, require

C_STAR = 3.0
# Influence diagnostics take well under a second (``geocens diagnose``
# about 80 ms); timing each several times gives the median enough samples
# to ride out a burst of contention, and lets every run compare a
# command's output files with its first repetition.
INFLUENCE_REPEATS = 3
CLI_DIAGNOSE_REPEATS = 6
SCHEMES = ("response", "scale", "explanatory")


class Round:
    """One round of operations: for each, its kind, the dataset it works
    on, its raw time and, after :meth:`scale`, its time scaled to the
    reference speed (see reference.py); attempted and failed counts,
    non-time outputs, and the exact outputs compared across rounds.
    Round functions set :attr:`dataset` before each dataset's operations."""

    def __init__(self, log, sampler):
        self.ops: list[dict] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.signature: list = []
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.dataset = 0
        self.log = log
        self.sampler = sampler

    def op(self, kind, fn, check=None):
        """Run and time ``fn``; then run ``check`` on its result, untimed.
        An exception from ``fn`` counts as an error, one from ``check`` as
        a wrong output; neither stops the round."""
        self.attempted += 1
        try:
            out, raw, span = self.sampler.timed(fn)
        except (Exception, SystemExit) as exc:  # boundary: record and go on
            self.errors += 1
            self.log(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.ops.append({"kind": kind, "dataset": self.dataset, "raw": raw, "span": span,
                         "scaled": raw})
        if check is not None:
            try:
                check(out)
            except Exception as exc:  # boundary: a check that cannot run is a failed check
                self.wrong += 1
                kind_of = "check failed" if isinstance(exc, CheckFailed) else type(exc).__name__
                self.log(f"{kind}: {kind_of}: {exc}")
        return out

    def scale(self):
        """Scale every time, once the sampler has run past the last operation."""
        for o in self.ops:
            o["scaled"] = o["raw"] * self.sampler.factor(o["span"])

    def times(self, kind, key="scaled") -> list[float]:
        return [o[key] for o in self.ops if o["kind"] == kind]

    def dataset_walls(self, key="scaled") -> list[float]:
        """Summed time of each dataset's operations."""
        walls: dict[int, float] = defaultdict(float)
        for o in self.ops:
            walls[o["dataset"]] += o[key]
        return list(walls.values())

    @property
    def raw_wall(self) -> float:
        return sum(o["raw"] for o in self.ops)


def _child_seeds(seed: int, count: int) -> list[list[int]]:
    """Three integer seeds for each of ``count`` datasets."""
    return [
        [int(v) for v in child.generate_state(3)]
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


def _lattice_coords(rng, n, spacing=0.45, jitter=0.3):
    """n sites of a jittered square lattice; the spacing floor keeps the
    Matern range identified (the acceptance-study design)."""
    side = int(np.ceil(np.sqrt(n)))
    g = np.arange(side) * spacing
    xx, yy = np.meshgrid(g, g)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    pts = pts[rng.choice(pts.shape[0], n, replace=False)]
    return pts + rng.uniform(-jitter * spacing / 2, jitter * spacing / 2, pts.shape)


def _design_matrix(n, x_extra):
    ones = np.ones((n, 1))
    return ones if x_extra is None else np.column_stack([ones, x_extra])


def _library_case(sim, spec, trend, config, truth):
    data = sim.data
    model = {"family": spec.family, "kappa": spec.kappa, "nugget_fixed": spec.nugget_fixed}
    x = _design_matrix(data.n, data.x_extra)
    # the naive predictors start and search where the SAEM fit does
    n_box = len(config.lower)
    ml_init = gc.CovParams(sigma2=config.init_sigma2, phi=config.init_phi,
                           tau2=config.init_nugget or 0.0)
    ml_bounds = (np.array([config.lower[0], config.lower[-1] if n_box > 1 else 0.0]),
                 np.array([config.upper[0], config.upper[-1] if n_box > 1 else 1e3]))
    return {
        "ml_init": ml_init, "ml_bounds": ml_bounds,
        "data": data, "spec": spec, "trend": trend, "config": config,
        "coords": data.coords, "value": data.value, "cens": data.cens,
        "lower": data.lower, "upper": data.upper, "x": x,
        "coords_pred": sim.pred_coords, "x_extra_pred": sim.pred_x_extra,
        "x_pred": _design_matrix(sim.pred_coords.shape[0], sim.pred_x_extra),
        "z_pred": sim.pred_z, "model": model, "truth": truth,
        "beta_se": orc.gls_beta_se(model, data.coords, x, truth),
    }


def study_matern_cases(seed: int, small: bool = False) -> list[dict]:
    """Acceptance-study design: Matern kappa=0.3, n=200, 15% left-censored,
    nugget fixed at 0, two covariates, 25 iterations; three datasets,
    each with 50 hold-out sites on the same lattice."""
    n, n_hold, count, iters = (30, 10, 1, 3) if small else (200, 50, 3, 25)
    spec = gc.CovarianceSpec("matern", kappa=0.3, nugget_fixed=True, fixed_nugget_value=0.0)
    trend = gc.TrendSpec("other")
    # correlation 0.14 at the 0.45 lattice spacing: a single fit's range can
    # land on the search box bound (seen at 0.05 on seed 2)
    truth = {"beta": np.array([5.0, 3.0, 1.0]), "sigma2": 3.0, "phi": 0.3, "tau2": 0.0,
             "phi_identified": False}
    cases = []
    for s_coords, s_sim, s_fit in _child_seeds(seed, count):
        coords = _lattice_coords(np.random.default_rng(s_coords), n + n_hold)
        sim = gc.simulate_scl(gc.SimConfig(
            n_est=n, n_pred=n_hold, beta=truth["beta"],
            cov=gc.CovParams(sigma2=truth["sigma2"], phi=truth["phi"], tau2=0.0),
            spec=spec, cens_level=0.15, trend=trend,
            covariate_ranges=[(0.0, 1.0), (2.0, 3.0)], coords=coords, seed=s_sim,
        ))
        config = gc.SaemConfig(
            m=15, max_iter=iters, pc=0.2, init_sigma2=2.0, init_phi=0.1,
            lower=(0.05,), upper=(5.0,), tol=0.0, seed=s_fit,
        )
        cases.append(_library_case(sim, spec, trend, config, truth))
    return cases


def exp_n500_cases(seed: int, small: bool = False) -> list[dict]:
    """Exponential, n=500, 10% left-censored, free nugget (2-D inner
    search), 8 iterations; one dataset with 150 hold-out sites."""
    n, n_hold, iters = (40, 10, 3) if small else (500, 150, 8)
    spec = gc.CovarianceSpec("exponential")
    trend = gc.TrendSpec("cte")
    truth = {"beta": np.array([10.0]), "sigma2": 2.0, "phi": 1.0, "tau2": 0.2}
    (s_sim, s_fit, _), = _child_seeds(seed, 1)
    sim = gc.simulate_scl(gc.SimConfig(
        n_est=n, n_pred=n_hold, beta=truth["beta"],
        cov=gc.CovParams(sigma2=truth["sigma2"], phi=truth["phi"], tau2=truth["tau2"]),
        spec=spec, cens_level=0.10, trend=trend, coord_box=((0.0, 10.0), (0.0, 10.0)),
        seed=s_sim,
    ))
    config = gc.SaemConfig(
        m=15, max_iter=iters, pc=0.2, init_sigma2=1.5, init_phi=0.8, init_nugget=0.1,
        lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=s_fit,
    )
    return [_library_case(sim, spec, trend, config, truth)]


def _fit_dict(fit) -> dict:
    return {
        "beta": fit.params.beta, "sigma2": fit.params.cov.sigma2,
        "phi": fit.params.cov.phi, "tau2": fit.params.cov.tau2,
        "zhat": fit.zhat, "zzhat": fit.zzhat,
        "iterations_used": fit.iterations_used, "max_iter": fit.config.max_iter,
        "lower": np.asarray(fit.config.lower), "upper": np.asarray(fit.config.upper),
    }


def _report_schemes(rep) -> dict:
    return {
        s: None if getattr(rep, s) is None else (getattr(rep, s).m0, getattr(rep, s).flags)
        for s in SCHEMES
    }


def _library_dataset(rnd: Round, case: dict, fit_path: str, sq_err: list):
    def check_fit(fit):
        f = _fit_dict(fit)
        orc.check_fit(f, case)
        orc.check_loglik(fit.loglik.value, fit.loglik.cens_prob, f, case)
        rnd.signature.append(fit.params.as_array().tolist() + [fit.loglik.value])

    fit = rnd.op("fit", lambda: gc.saem_fit(case["data"], case["trend"], case["spec"],
                                            case["config"]), check_fit)
    for _ in range(INFLUENCE_REPEATS):
        rnd.op("influence", lambda: gc.local_influence(fit, C_STAR),
               lambda rep: orc.check_influence(_report_schemes(rep), C_STAR))

    def write_fit_json():
        cli.write_json(fit_path, cli.fit_to_payload(fit))
        return os.path.getsize(fit_path)

    def check_fit_json(size):
        with open(fit_path) as handle:
            params = json.load(handle)["params"]
        require(params["beta"] == fit.params.beta.tolist()
                and [params["sigma2"], params["phi"], params["tau2"]]
                == fit.params.cov.as_array().tolist(), "fit.json estimates differ from the fit")
        rnd.values["fit_json_bytes"].append(size)

    rnd.op("fit_json", write_fit_json, check_fit_json)

    def holdout():
        saem_pred = gc.predict_saem(fit, case["x_pred"], case["coords_pred"])
        naive = [gc.predict_naive(case["data"], case["trend"], case["spec"], variant,
                                  case["coords_pred"], case["x_extra_pred"],
                                  case["ml_init"], case["ml_bounds"])
                 for variant in ("naive1", "naive2")]
        return saem_pred, naive

    def check_holdout(out):
        saem_pred, naive = out
        orc.check_prediction(saem_pred.mean, saem_pred.sd, _fit_dict(fit), case, fit.zhat)
        for res in naive:
            p = res.params_used
            f = {"beta": p.beta, "sigma2": p.cov.sigma2, "phi": p.cov.phi, "tau2": p.cov.tau2}
            orc.check_prediction(res.mean, res.sd, f, case, res.extra["imputed"])
            orc.check_naive_loglik(res.extra["gaussian_loglik"], p, res.extra["imputed"], case)
            rnd.signature.append(res.mean.tolist())
        sq_err.extend(((saem_pred.mean - case["z_pred"]) ** 2).tolist())

    rnd.op("crossval", holdout, check_holdout)


def library_round(cases: list[dict], rnd: Round, workdir: str):
    """Per dataset: ``saem_fit``, ``local_influence``, fit.json written
    through the CLI's serializer, and the hold-out step (``predict_saem``
    and ``predict_naive`` naive1 and naive2 at the hold-out sites)."""
    sq_err: list[float] = []
    for k, case in enumerate(cases):
        rnd.dataset = k
        _library_dataset(rnd, case, os.path.join(workdir, f"fit{k}.json"), sq_err)
    if sq_err:
        rnd.values["rmspe_saem"].append(float(np.sqrt(np.mean(sq_err))))


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

CLI_TRUTH = {"beta": np.array([10.0]), "sigma2": 2.0, "phi": 1.0, "tau2": 0.2}
# The nugget is held at its generating value: with a free nugget, about a
# quarter of the datasets put nu2 on its lower bound, where the inner
# search takes a third fewer evaluations, so fit time would follow the seed.
CLI_MODEL = {"family": "exponential", "kappa": 0.0, "nugget_fixed": True}


def cli_cases(seed: int, small: bool = False) -> list[dict]:
    """Two chains on datasets of 160 estimation sites, half of them
    left-censored, plus 40 uncensored hold-out sites; exponential model,
    12 iterations."""
    n_est, n_pred, iters, count = (30, 6, 3, 1) if small else (160, 40, 12, 2)
    return [{"sim_seed": s_sim, "fit_seed": s_fit, "n_est": n_est, "n_pred": n_pred,
             "max_iter": iters} for s_sim, s_fit, _ in _child_seeds(seed, count)]


def _run_cli(*argv) -> str:
    """``geocens`` in process; a nonzero exit code raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"geocens {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _cli_case_from_files(d: str, n_est: int, n_pred: int) -> dict:
    """Estimation data and hold-out truth as written by ``simulate``."""
    _, rows = _read_csv(os.path.join(d, "data.csv"))
    _, truth = _read_csv(os.path.join(d, "truth.csv"))
    require(len(rows) == n_est and len(truth) == n_pred, "simulate wrote the wrong row counts")
    num = lambda v, empty: empty if v == "" else float(v)
    coords = np.array([[float(r[0]), float(r[1])] for r in rows])
    cens = np.array([int(r[3]) for r in rows])
    require(cens.sum() == int(np.ceil(0.5 * n_est)), "simulate censored the wrong share")
    coords_pred = np.array([[float(r[0]), float(r[1])] for r in truth])
    return {
        "coords": coords, "value": np.array([float(r[2]) for r in rows]), "cens": cens,
        "lower": np.array([num(r[4], -np.inf) for r in rows]),
        "upper": np.array([num(r[5], np.inf) for r in rows]),
        "x": np.ones((n_est, 1)), "coords_pred": coords_pred, "x_pred": np.ones((n_pred, 1)),
        "z_pred": np.array([float(r[2]) for r in truth]),
        "model": CLI_MODEL, "truth": CLI_TRUTH,
        "beta_se": orc.gls_beta_se(CLI_MODEL, coords, np.ones((n_est, 1)), CLI_TRUTH),
    }


def _stage_cli_inputs(d: str):
    """Targets and the crossval table, which ``simulate`` does not write:
    targets are the hold-out coordinates, the crossval table is data.csv
    followed by the hold-out rows as uncensored readings."""
    header, rows = _read_csv(os.path.join(d, "data.csv"))
    _, truth = _read_csv(os.path.join(d, "truth.csv"))
    with open(os.path.join(d, "targets.csv"), "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["x", "y"])
        w.writerows([r[:2] for r in truth])
    with open(os.path.join(d, "all.csv"), "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(header)
        w.writerows(rows)
        w.writerows([[r[0], r[1], r[2], "0", "", ""] for r in truth])


def cli_round(cases: list[dict], rnd: Round, workdir: str):
    """One chain per dataset, each in its own directory; the SAEM hold-out
    error is pooled over the chains."""
    sq_err: list[float] = []
    for k, case in enumerate(cases):
        rnd.dataset = k
        d = os.path.join(workdir, f"chain{k}")
        os.makedirs(d)
        _cli_chain(case, rnd, d, sq_err)
    if sq_err:
        rnd.values["rmspe_saem"].append(float(np.sqrt(np.mean(sq_err))))


def _cli_chain(c: dict, rnd: Round, d: str, sq_err: list):
    """``simulate`` -> ``fit`` -> ``predict --method saem`` -> ``diagnose``
    x6 -> ``crossval`` (naive1, naive2, seminaive, saem) -> ``variogram``."""
    p = lambda name: os.path.join(d, name)
    model_opts = ["--cov-model", "exponential", "--fix-nugget", "--nugget", CLI_TRUTH["tau2"]]
    saem_opts = model_opts + [
        "--init-sigma2", 1.5, "--init-phi", 1, "--m", 15, "--max-iter", c["max_iter"],
        "--tol", 0, "--lower", 0.05, "--upper", 20, "--seed", c["fit_seed"]]
    state: dict = {}

    def check_simulate(_):
        state["case"] = _cli_case_from_files(d, c["n_est"], c["n_pred"])
        _stage_cli_inputs(d)

    rnd.op("simulate", lambda: _run_cli(
        "simulate", "--n-est", c["n_est"], "--n-pred", c["n_pred"], "--beta", CLI_TRUTH["beta"][0],
        "--sigma2", CLI_TRUTH["sigma2"], "--phi", CLI_TRUTH["phi"], "--tau2", CLI_TRUTH["tau2"],
        "--cens-level", 0.5, "--box", "0,8,0,8",
        "--seed", c["sim_seed"], "--out-dir", d), check_simulate)

    def check_fit(_):
        with open(p("fit.json")) as handle:
            payload = json.load(handle)
        cfg, par = payload["config"], payload["params"]
        f = {"beta": np.array(par["beta"]), "sigma2": par["sigma2"], "phi": par["phi"],
             "tau2": par["tau2"], "zhat": np.array(payload["zhat"]),
             "zzhat": np.array(payload["zzhat"]), "iterations_used": payload["iterations_used"],
             "max_iter": cfg["max_iter"], "lower": np.array(cfg["lower"]),
             "upper": np.array(cfg["upper"])}
        orc.check_fit(f, state["case"])
        state["fit"] = f
        rnd.values["fit_json_bytes"].append(os.path.getsize(p("fit.json")))

    rnd.op("fit", lambda: _run_cli("fit", "--data", p("data.csv"), *saem_opts, "--out-dir", d),
           check_fit)

    def check_predict(_):
        _, rows = _read_csv(p("predictions.csv"))
        mean = np.array([float(r[2]) for r in rows])
        sd = np.array([float(r[3]) for r in rows])
        case = state["case"]
        orc.check_prediction(mean, sd, state["fit"], case, state["fit"]["zhat"])
        err2 = (mean - case["z_pred"]) ** 2
        state["rmspe"] = float(np.sqrt(np.mean(err2)))
        sq_err.extend(err2.tolist())

    rnd.op("predict", lambda: _run_cli(
        "predict", "--method", "saem", "--fit", p("fit.json"), "--targets", p("targets.csv"),
        "--truth", p("truth.csv"), "--out-dir", d), check_predict)

    def check_diagnose(_):
        with open(p("influence.json")) as handle:
            payload = json.load(handle)
        schemes = {s: None if payload["schemes"][s] is None
                   else (payload["schemes"][s]["m0"], payload["schemes"][s]["flags"])
                   for s in SCHEMES}
        orc.check_influence(schemes, C_STAR)
        outputs = [_digest(p(f"m0_{s}.svg")) for s in SCHEMES] + [_digest(p("influence.json"))]
        first = state.setdefault("diagnose_outputs", outputs)
        require(outputs == first, "diagnose output differs from its first repetition")

    for _ in range(CLI_DIAGNOSE_REPEATS):
        rnd.op("influence", lambda: _run_cli(
            "diagnose", "--fit", p("fit.json"), "--data", p("data.csv"), "--c-star", C_STAR,
            "--out-dir", d), check_diagnose)

    def check_crossval(_):
        header, rows = _read_csv(p("mspe_table.csv"))
        table = {r[-1]: dict(zip(header, r)) for r in rows}
        require(sorted(table) == ["naive1", "naive2", "saem", "seminaive"],
                f"crossval rows {sorted(table)}")
        require(all(np.isfinite(float(r["rmspe"])) for r in table.values()), "non-finite RMSPE")
        # the saem row refits the same rows with the same seed, so its
        # hold-out error is the one of predict --method saem
        got = float(table["saem"]["rmspe"])
        require(orc.close(got, state["rmspe"], state["rmspe"]),
                f"crossval saem RMSPE {got!r} vs predict {state['rmspe']!r}")

    rnd.op("crossval", lambda: _run_cli(
        "crossval", "--data", p("all.csv"), "--n-est", c["n_est"],
        "--methods", "naive1,naive2,seminaive,saem", *saem_opts, "--out-dir", d),
        check_crossval)

    def check_variogram(_):
        _, rows = _read_csv(p("variogram.csv"))
        got = np.array([[float(v) for v in r] for r in rows])
        case = state["case"]
        centers, gamma, counts = orc.semivariogram(case["coords"], case["value"], 13)
        require(got.shape == (len(centers), 3), "variogram bin count differs")
        require(orc.close(got[:, 0], centers, centers.max())
                and orc.close(got[:, 1], gamma, gamma.max())
                and np.array_equal(got[:, 2], counts), "variogram differs from the reference")

    rnd.op("variogram", lambda: _run_cli("variogram", "--data", p("data.csv"), "--bins", 13,
                                         "--out-dir", d), check_variogram)

    rnd.signature += [[name, _digest(p(name))] for name in sorted(os.listdir(d))]


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()




WORKLOADS = {
    "study-matern": (study_matern_cases, library_round),
    "exp-n500": (exp_n500_cases, library_round),
    "cli-censored": (cli_cases, cli_round),
}
