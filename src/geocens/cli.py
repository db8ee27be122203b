"""Batch command line interface.

Subcommands: ``simulate``, ``fit``, ``predict``, ``crossval``, ``diagnose``,
``variogram``.  All file outputs are written atomically (temp file plus
rename) by :func:`_atomic_write` and all randomness is governed by
``--seed``, so a repeated command produces byte-identical outputs.

The file formats have one owner each: :func:`_write_csv` writes every CSV
(cells by :func:`_cell`, infinite bounds as empty cells by
:func:`_bound_cell`), :func:`_read_table` reads every CSV against its
column table (``_DATA_COLUMNS``, ``_TARGET_COLUMNS``, ``_TRUTH_COLUMNS``,
then ``cov1..covq`` named by :func:`_cov_names`), and :func:`_json_header`
opens every JSON output.

Exit codes: 0 success, 2 validation or schema error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from collections.abc import Iterable
from dataclasses import asdict, fields

import numpy as np

from . import __version__, svg
from .covariance import FAMILIES, CovarianceSpec, CovParams, correlation
from .errors import (
    ConfigurationError,
    DataValidationError,
    DegenerateCurvatureError,
    GeocensError,
    ModelSpecificationError,
    NumericalError,
    SingularCovarianceError,
    UnsupportedMethodError,
)
from .influence import SCHEMES, local_influence
from .model import ModelParams, SpatialDataset, TrendSpec, build_trend, param_count
from .predict import (
    METHODS,
    SeminaiveConfig,
    cross_validate,
    empirical_variogram,
    predict_naive,
    predict_saem,
    predict_seminaive,
    wls_variofit,
)
from .saem import SaemConfig, SaemFit, check_start, saem_fit
from .simulate import SimConfig, inject_outliers, simulate_scl

_VALIDATION_ERRORS = (
    ConfigurationError,
    DataValidationError,
    ModelSpecificationError,
    UnsupportedMethodError,
    FileNotFoundError,
)
_NUMERICAL_ERRORS = (SingularCovarianceError, NumericalError, DegenerateCurvatureError)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


def _atomic_write(path: str, content: str, chunks: Iterable[str] = ()):
    """Write ``content`` and then each string of ``chunks`` to a temp file
    beside ``path``, give it the mode ``open`` would, and rename it over
    ``path``; on any failure the temp file is removed.  ``chunks`` may be
    a generator, so a long output is streamed without being joined."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(content)
            for chunk in chunks:
                handle.write(chunk)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v) -> str:
    """A CSV cell: text as it is, any other value as the ``repr`` of a float."""
    return v if isinstance(v, str) else repr(float(v))


def _bound_cell(v: float) -> str:
    return "" if np.isinf(v) else repr(float(v))


def _cov_names(q: int) -> list:
    return [f"cov{j + 1}" for j in range(q)]


def _cov_columns(x_extra) -> tuple:
    return () if x_extra is None else tuple(x_extra.T)


def _write_csv(path: str, header: list, rows):
    """Write ``header`` and ``rows`` in the default csv dialect, each
    value through :func:`_cell`."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([_cell(v) for v in row] for row in rows)
    _atomic_write(path, buf.getvalue())


# column name -> cell parser; covariate columns cov1..covq follow, and an
# empty bound cell is an infinite bound
_DATA_COLUMNS = {
    "x": float, "y": float, "value": float, "cens": int,
    "lower": lambda v: float(v) if v != "" else -np.inf,
    "upper": lambda v: float(v) if v != "" else np.inf,
}
_TARGET_COLUMNS = {"x": float, "y": float}
_TRUTH_COLUMNS = {"x": float, "y": float, "value": float}


def _read_table(path: str, columns: dict) -> tuple:
    """The data rows of a CSV whose columns are ``columns`` then
    ``cov1..covq``, each cell read by its column's parser: one array row
    per named column, and the ``(n, q)`` covariates (None when q = 0)."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise DataValidationError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    base = list(columns)
    q = len(header) - len(base)
    if header != base + _cov_names(q):
        raise DataValidationError(f"{path}: expected columns {base}[,cov1..], got {header}")
    if not rows:
        raise DataValidationError(f"{path}: no data rows")
    parsers = list(columns.values()) + [float] * q
    table = np.empty((len(header), len(rows)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataValidationError(f"{path}:{r + 2}: wrong field count")
        try:
            table[:, r] = [parse(v) for parse, v in zip(parsers, row)]
        except ValueError as exc:
            raise DataValidationError(f"{path}:{r + 2}: {exc}") from exc
    k = len(base)
    return table[:k], (np.ascontiguousarray(table[k:].T) if q else None)


def write_dataset_csv(path: str, data: SpatialDataset):
    covs = _cov_columns(data.x_extra)
    _write_csv(
        path,
        list(_DATA_COLUMNS) + _cov_names(len(covs)),
        zip(*data.coords.T, data.value, map(str, data.cens),
            map(_bound_cell, data.lower), map(_bound_cell, data.upper), *covs),
    )


def read_dataset_csv(path: str) -> SpatialDataset:
    (x, y, value, cens, lower, upper), x_extra = _read_table(path, _DATA_COLUMNS)
    is_c = cens == 1
    if np.all(np.isneginf(lower[is_c])):
        cens_type = "left"
    elif np.all(np.isposinf(upper[is_c])):
        cens_type = "right"
    else:
        cens_type = "interval"
    return SpatialDataset(
        coords=np.column_stack((x, y)),
        value=value,
        cens=cens,
        lower=lower,
        upper=upper,
        x_extra=x_extra,
        cens_type=cens_type,
    )


def read_targets_csv(path: str):
    """Targets file: ``x,y[,cov1..covq]``."""
    xy, x_extra = _read_table(path, _TARGET_COLUMNS)
    return np.column_stack(xy), x_extra


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _bounds_list(arr):
    return [None if np.isinf(v) else float(v) for v in arr]


def _json_header(kind: str) -> dict:
    """The keys every JSON output opens with."""
    return {"tool": "geocens", "version": __version__, "kind": kind}


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _is_symmetric(value) -> bool:
    """Whether ``value`` is a square float64 array equal to its transpose
    bit for bit (so -0.0 is not taken for 0.0, and NaN matches NaN)."""
    return (
        isinstance(value, np.ndarray) and value.dtype == np.float64
        and value.ndim == 2 and value.shape[0] == value.shape[1]
        and np.array_equal(value.view(np.int64), value.T.view(np.int64))
    )


def _symmetric_rows(mat: np.ndarray):
    """The rows of the JSON list of lists of the symmetric ``mat``, each
    entry spelled as ``json`` spells it.  Each row is formatted from its
    diagonal rightward; its left part is the column formatted by the rows
    above, each of which hands its entries right of the diagonal down to
    the rows they belong to, and a row's list is dropped once written."""
    left = [[] for _ in range(mat.shape[0])]
    for i, row in enumerate(mat):
        right = list(map(float.__repr__, row[i:].tolist()))
        if not np.isfinite(row[i:]).all():
            right = [_JSON_SPECIAL.get(s, s) for s in right]
        for below, s in zip(left[i + 1:], right[1:]):
            below.append(s)
        out, left[i] = left[i], None
        out += right
        yield f"{', ' if i else ''}[{', '.join(out)}]"


def _json_chunks(payload: dict):
    """``json.dumps(payload, default=_json_default) + "\\n"`` in pieces, for
    a payload of at least one key: the object key by key, each value
    through ``json.dumps`` except a symmetric array (:func:`_is_symmetric`)
    under a text key, which is written row by row
    (:func:`_symmetric_rows`)."""
    sep = "{"
    for key, value in payload.items():
        if isinstance(key, str) and _is_symmetric(value):
            yield f"{sep}{json.dumps(key)}: ["
            yield from _symmetric_rows(value)
            yield "]"
        else:
            yield sep + json.dumps({key: value}, default=_json_default)[1:-1]
        sep = ", "
    yield "}\n"


def write_json(path: str, payload: dict):
    """Write ``json.dumps(payload, default=_json_default)`` and a newline
    to ``path`` atomically.  A payload with a symmetric matrix at its top
    level (a fit's ``zzhat``) is streamed: each symmetric pair is formatted
    once and the rows are written as they are formed, so neither the n x n
    list of floats nor the whole text is built.  The bytes are the same."""
    if any(map(_is_symmetric, payload.values())):
        _atomic_write(path, "", _json_chunks(payload))
    else:
        _atomic_write(path, json.dumps(payload, default=_json_default) + "\n")


# ---------------------------------------------------------------------------
# shared option plumbing
# ---------------------------------------------------------------------------


def _add_model_options(p: argparse.ArgumentParser):
    p.add_argument("--trend", choices=["cte", "first", "other"], default="cte")
    p.add_argument("--cov-model", choices=FAMILIES, default="exponential")
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--fix-nugget", action="store_true")
    p.add_argument("--nugget", type=float, default=0.0,
                   help="fixed nugget value (with --fix-nugget) or initial nugget")


def _add_init_options(p: argparse.ArgumentParser):
    p.add_argument("--init-sigma2", type=float, default=None)
    p.add_argument("--init-phi", type=float, default=None)


def _add_saem_options(p: argparse.ArgumentParser):
    _add_init_options(p)
    p.add_argument("--lower", type=str, default="1e-4,1e-4",
                   help="search box lower bounds phi[,nu2]")
    p.add_argument("--upper", type=str, default="1e4,1e4",
                   help="search box upper bounds phi[,nu2]")
    p.add_argument("--m", type=int, default=15)
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--pc", type=float, default=0.2)
    p.add_argument("--tol", type=float, default=1e-2,
                   help="stop once, for every parameter, the change between the means of "
                        "the last two windows of iterates plus the Monte Carlo standard "
                        "error of the current iterate is below tol times the parameter; "
                        "0 runs all --max-iter iterations")


def _items(text: str, parse, what: str) -> tuple:
    """Comma-separated items of ``text``, each converted by ``parse``."""
    try:
        return tuple(parse(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"expected comma-separated {what}, got {text!r}") from exc


def _floats(text: str) -> tuple:
    return _items(text, float, "numbers")


def _range(text: str) -> tuple:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def _spec_from_args(args) -> CovarianceSpec:
    return CovarianceSpec(
        family=args.cov_model,
        kappa=args.kappa,
        nugget_fixed=args.fix_nugget,
        fixed_nugget_value=args.nugget if args.fix_nugget else 0.0,
    )


def _saem_config_from_args(args) -> SaemConfig:
    lower, upper = _floats(args.lower), _floats(args.upper)
    if args.fix_nugget:
        lower, upper = lower[:1], upper[:1]
    return SaemConfig(
        m=args.m,
        max_iter=args.max_iter,
        pc=args.pc,
        init_sigma2=args.init_sigma2,
        init_phi=args.init_phi,
        init_nugget=None if args.fix_nugget else args.nugget,
        lower=lower,
        upper=upper,
        tol=args.tol,
        seed=args.seed,
    )


def _init_from_args(args):
    """Initial covariance parameters of the Gaussian ML fits; None selects
    the variogram-based initializer.  A start given by half is an error."""
    check_start(args.init_sigma2, args.init_phi, args.nugget)
    if args.init_sigma2 is None:
        return None
    return CovParams(sigma2=args.init_sigma2, phi=args.init_phi, tau2=args.nugget)


def _out(args, name: str) -> str:
    return os.path.join(args.out_dir, name)


# ---------------------------------------------------------------------------
# fit serialization
# ---------------------------------------------------------------------------


def _dataset_payload(data: SpatialDataset) -> dict:
    return {
        "coords": data.coords,
        "value": data.value,
        "cens": data.cens,
        "lower": _bounds_list(data.lower),
        "upper": _bounds_list(data.upper),
        "x_extra": None if data.x_extra is None else data.x_extra,
        "cens_type": data.cens_type,
    }


def _dataset_from_payload(payload: dict) -> SpatialDataset:
    lower = np.array([-np.inf if v is None else v for v in payload["lower"]])
    upper = np.array([np.inf if v is None else v for v in payload["upper"]])
    return SpatialDataset(
        coords=np.array(payload["coords"]),
        value=np.array(payload["value"]),
        cens=np.array(payload["cens"]),
        lower=lower,
        upper=upper,
        x_extra=None if payload["x_extra"] is None else np.array(payload["x_extra"]),
        cens_type=payload["cens_type"],
    )


def fit_summary_text(fit: SaemFit) -> str:
    """Human-readable account of a completed fit."""
    trend_desc = {
        "cte": "constant (mu = b0)",
        "first": "linear in coordinates (mu = b0 + b1*x + b2*y)",
        "other": "intercept plus user covariates",
    }[fit.trend.kind]
    spec = fit.spec
    fam = spec.family + (f" (kappa = {spec.kappa:g})" if spec.family in ("matern", "powered-exponential") else "")
    lines = [
        "-" * 64,
        " Spatial censored linear model -- stochastic EM estimates",
        "-" * 64,
        f"Trend       : {trend_desc}",
        f"Covariance  : {fam}" + ("  [nugget fixed]" if spec.nugget_fixed else ""),
        "",
        "Estimates",
    ]
    for j, b in enumerate(fit.params.beta):
        lines.append(f"  beta{j:<6} {b:12.4f}")
    lines.append(f"  sigma2     {fit.params.cov.sigma2:12.4f}")
    lines.append(f"  phi        {fit.params.cov.phi:12.4f}")
    lines.append(f"  tau2       {fit.params.cov.tau2:12.4f}")
    aicc = "" if fit.aicc is None else f"  AICc {fit.aicc:.6g}"
    lines += [
        "",
        f"Loglik {fit.loglik.value:.6g}  AIC {fit.aic:.6g}  BIC {fit.bic:.6g}{aicc}",
        f"Loglik Monte Carlo se {fit.loglik.se:.3g} ({fit.loglik.n_points} points)",
        "",
        f"Censoring   : {fit.data.cens_type}, {fit.data.n_censored} of {fit.data.n} sites",
        f"Converged   : {fit.converged} ({fit.iterations_used}/{fit.config.max_iter} iterations)",
        f"MC sample   : {fit.config.m}   cut point: {fit.config.pc}",
        "-" * 64,
    ]
    return "\n".join(lines)


def fit_to_payload(fit: SaemFit) -> dict:
    return {
        **_json_header("fit"),
        "config": {
            **asdict(fit.config),
            "trend": fit.trend.kind,
            "cov_model": fit.spec.family,
            "kappa": fit.spec.kappa,
            "fix_nugget": fit.spec.nugget_fixed,
            "nugget": fit.spec.fixed_nugget_value,
        },
        "dataset_fingerprint": fit.fingerprint,
        "params": {
            "beta": fit.params.beta,
            "sigma2": fit.params.cov.sigma2,
            "phi": fit.params.cov.phi,
            "tau2": fit.params.cov.tau2,
        },
        "loglik": fit.loglik.value,
        "loglik_se": fit.loglik.se,
        "aic": fit.aic,
        "bic": fit.bic,
        "aicc": fit.aicc,
        "converged": fit.converged,
        "iterations_used": fit.iterations_used,
        "trace_params": fit.trace_params,
        "zhat": fit.zhat,
        "zzhat": fit.zzhat,
        "dataset": _dataset_payload(fit.data),
        "summary": fit_summary_text(fit),
    }


def _fit_array(value, name: str, shape: tuple) -> np.ndarray:
    """A fit-file field as a float array of ``shape`` (None: any length);
    anything else, text or None entries included, is a
    :class:`DataValidationError`."""
    try:
        out = np.array(value)
    except ValueError:  # ragged nesting
        out = None
    if out is None or out.dtype.kind not in "iuf" or out.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(out.shape, shape)
    ):
        want = "x".join("k" if d is None else str(d) for d in shape) or "a number"
        raise DataValidationError(f"fit file: {name} must be numeric, shape {want}")
    return out.astype(float)


def fit_from_payload(payload: dict) -> SaemFit:
    """The fit a fit file records.  The file holds no precision matrix, so
    the fit's ``precision`` is None."""
    if payload.get("kind") != "fit":
        raise DataValidationError("not a fit file")
    cfg_d = payload["config"]
    data = _dataset_from_payload(payload["dataset"])
    spec = CovarianceSpec(
        family=cfg_d["cov_model"],
        kappa=cfg_d["kappa"],
        nugget_fixed=cfg_d["fix_nugget"],
        fixed_nugget_value=cfg_d["nugget"],
    )
    trend = TrendSpec(cfg_d["trend"])
    x = build_trend(data.coords, data.x_extra, trend)
    n, p = x.shape
    fitted = payload["params"]
    cov = {k: float(_fit_array(fitted[k], k, ())) for k in ("sigma2", "phi", "tau2")}
    params = ModelParams(beta=_fit_array(fitted["beta"], "beta", (p,)), cov=CovParams(**cov))
    cfg = {f.name: cfg_d[f.name] for f in fields(SaemConfig)}
    if (cfg["init_sigma2"] is None) != (cfg["init_phi"] is None):
        # older files record a start given by half, which the fit ignored
        cfg["init_sigma2"] = cfg["init_phi"] = None
    config = SaemConfig(**cfg)
    from .model import LogLik, criteria

    ll = LogLik(value=payload["loglik"])
    crit = criteria(ll.value, param_count(p, spec.nugget_fixed), n)
    cen = np.flatnonzero(data.cens == 1)
    return SaemFit(
        params=params,
        zhat=_fit_array(payload["zhat"], "zhat", (n,)),
        zz_cc=_fit_array(payload["zzhat"], "zzhat", (n, n))[np.ix_(cen, cen)],
        loglik=ll,
        criteria=crit,
        trace_params=_fit_array(payload["trace_params"], "trace_params", (None, p + 3)),
        converged=payload["converged"],
        iterations_used=payload["iterations_used"],
        config=config,
        data=data,
        trend=trend,
        spec=spec,
        x=x,
        fingerprint=payload["dataset_fingerprint"],
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    trend = TrendSpec(args.trend)
    ranges = None
    if args.covariate_ranges:
        ranges = list(_items(args.covariate_ranges, _range, "lo:hi ranges"))
    box = _floats(args.box)
    if len(box) != 4:
        raise ConfigurationError("--box needs x0,x1,y0,y1")
    cfg = SimConfig(
        n_est=args.n_est,
        n_pred=args.n_pred,
        beta=_floats(args.beta),
        cov=CovParams(sigma2=args.sigma2, phi=args.phi, tau2=args.tau2),
        spec=spec,
        cens_level=args.cens_level,
        cens_type=args.cens_type,
        trend=trend,
        coord_box=((box[0], box[1]), (box[2], box[3])),
        covariate_ranges=ranges,
        seed=args.seed,
    )
    res = simulate_scl(cfg)
    data = res.data
    if args.outlier_indices:
        idx = list(_items(args.outlier_indices, int, "row indices"))
        data = inject_outliers(data, idx, args.outlier_sd)
    write_dataset_csv(_out(args, "data.csv"), data)

    covs = _cov_columns(res.pred_x_extra)
    _write_csv(_out(args, "truth.csv"), list(_TRUTH_COLUMNS) + _cov_names(len(covs)),
               zip(*res.pred_coords.T, res.pred_z, *covs))

    write_json(
        _out(args, "manifest.json"),
        {
            **_json_header("simulate"),
            "config": {
                "n_est": args.n_est,
                "n_pred": args.n_pred,
                "beta": list(_floats(args.beta)),
                "sigma2": args.sigma2,
                "phi": args.phi,
                "tau2": args.tau2,
                "cov_model": args.cov_model,
                "kappa": args.kappa,
                "cens_level": args.cens_level,
                "cens_type": args.cens_type,
                "trend": args.trend,
                "box": list(box),
                "covariate_ranges": args.covariate_ranges,
                "outlier_indices": args.outlier_indices,
                "outlier_sd": args.outlier_sd,
                "seed": args.seed,
            },
            "lod": res.lod,
            "n_censored": int(data.n_censored),
            "dataset_fingerprint": data.fingerprint(),
            "files": ["data.csv", "truth.csv"],
        },
    )
    print(f"wrote data.csv ({data.n} rows, {data.n_censored} censored), truth.csv "
          f"({res.pred_coords.shape[0]} rows) to {args.out_dir}")
    return 0


def cmd_fit(args) -> int:
    data = read_dataset_csv(args.data)
    spec = _spec_from_args(args)
    trend = TrendSpec(args.trend)
    config = _saem_config_from_args(args)
    fit = saem_fit(data, trend, spec, config)
    write_json(_out(args, "fit.json"), fit_to_payload(fit))
    print(fit_summary_text(fit))
    print(f"wrote fit.json to {args.out_dir}")
    return 0


def _grid_axes(coords: np.ndarray):
    xs = np.unique(coords[:, 0])
    ys = np.unique(coords[:, 1])
    if xs.size * ys.size != coords.shape[0]:
        return None
    want = {(float(a), float(b)) for a in xs for b in ys}
    have = {(float(a), float(b)) for a, b in coords}
    return (xs, ys) if want == have else None


def cmd_predict(args) -> int:
    coords_pred, x_extra_pred = read_targets_csv(args.targets)
    truth = None
    if args.truth:
        (x, y, truth), _ = _read_table(args.truth, _TRUTH_COLUMNS)
        if not np.array_equal(np.column_stack((x, y)), coords_pred):
            raise DataValidationError(
                f"{args.truth}: rows are not the {coords_pred.shape[0]} target sites in order"
            )
    if args.method == "saem":
        if not args.fit:
            raise ConfigurationError("method saem requires --fit")
        with open(args.fit) as handle:
            fit = fit_from_payload(json.load(handle))
        x_pred = build_trend(coords_pred, x_extra_pred, fit.trend)
        result = predict_saem(fit, x_pred, coords_pred)
    else:
        if not args.data:
            raise ConfigurationError(f"method {args.method} requires --data")
        data = read_dataset_csv(args.data)
        spec = _spec_from_args(args)
        trend = TrendSpec(args.trend)
        init = _init_from_args(args)
        if args.method == "seminaive":
            result = predict_seminaive(
                data, trend, spec, coords_pred, x_extra_pred,
                SeminaiveConfig(max_iter=args.semi_max_iter), init,
            )
        else:
            result = predict_naive(
                data, trend, spec, args.method, coords_pred, x_extra_pred, init
            )

    _write_csv(_out(args, "predictions.csv"), ["x", "y", "mean", "sd"],
               zip(*coords_pred.T, result.mean, result.sd))

    _atomic_write(
        _out(args, "predictions.svg"),
        svg.prediction_band_chart(
            result.mean, result.sd, truth=truth,
            title=f"{args.method} predictions with 95% bands",
        ),
    )
    grid = _grid_axes(coords_pred)
    if grid is not None:
        xs, ys = grid
        order = np.lexsort((coords_pred[:, 0], coords_pred[:, 1]))
        _atomic_write(
            _out(args, "prediction_mean_grid.svg"),
            svg.intensity_chart(xs, ys, result.mean[order], "predicted mean"),
        )
        _atomic_write(
            _out(args, "prediction_sd_grid.svg"),
            svg.intensity_chart(xs, ys, result.sd[order], "prediction sd"),
        )
    print(f"wrote predictions.csv and SVG plots to {args.out_dir}")
    return 0


def cmd_crossval(args) -> int:
    data = read_dataset_csv(args.data)
    spec = _spec_from_args(args)
    trend = TrendSpec(args.trend)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    saem_config = _saem_config_from_args(args) if "saem" in methods else None
    reports = cross_validate(
        data, trend, spec, args.n_est, methods,
        saem_config=saem_config,
        seminaive_config=SeminaiveConfig(max_iter=args.semi_max_iter),
        init=_init_from_args(args),
        eval_seed=args.seed + 101,
    )
    _write_csv(
        _out(args, "mspe_table.csv"),
        [f"beta{i}" for i in range(len(reports[0].params.beta))]
        + ["sigma2", "phi", "tau2", "loglik", "aic", "bic", "rmspe", "method"],
        ([*rep.params.beta, *rep.params.cov.as_array(), rep.loglik, rep.aic, rep.bic,
          rep.rmspe, rep.method] for rep in reports),
    )
    for rep in reports:
        print(f"{rep.method:10s} loglik {rep.loglik:12.3f}  AIC {rep.aic:10.3f}  "
              f"BIC {rep.bic:10.3f}  sqrt(MSPE) {rep.rmspe:8.3f}")
    print(f"wrote mspe_table.csv to {args.out_dir}")
    return 0


def cmd_diagnose(args) -> int:
    with open(args.fit) as handle:
        fit = fit_from_payload(json.load(handle))
    if args.data:
        data = read_dataset_csv(args.data)
        if data.fingerprint() != fit.fingerprint:
            raise DataValidationError("--data does not match the fit's dataset")
    report = local_influence(fit, c_star=args.c_star)
    payload = {
        **_json_header("influence"),
        "c_star": args.c_star,
        "dataset_fingerprint": fit.fingerprint,
        "schemes": {},
        "errors": report.errors,
        "hessian_eigenvalues": report.hessian_eigenvalues,
        "hessian_negative_definite": report.hessian_negative_definite,
    }
    if not report.hessian_negative_definite:
        print(f"warning: the Hessian of Q is not negative definite at the estimates "
              f"(smallest eigenvalue of -H {report.hessian_eigenvalues[0]:.3g}); "
              f"M(0) assumes a maximizer", file=sys.stderr)
    for name in SCHEMES:
        diag = report.scheme(name)
        if diag is None:
            payload["schemes"][name] = None
            continue
        payload["schemes"][name] = {
            "m0": diag.m0,
            "benchmark": diag.benchmark,
            "flags": diag.flags.astype(int),
            "atypical": diag.atypical,
            "rank": diag.rank,
            "top_eigenvalues": diag.top_eigenvalues,
        }
        _atomic_write(
            _out(args, f"m0_{name}.svg"),
            svg.influence_index_chart(
                diag.m0, diag.benchmark, f"{name} perturbation"
            ),
        )
        flagged = ", ".join(str(i) for i in diag.atypical) or "none"
        print(f"{name:12s} benchmark {diag.benchmark:.5f}  atypical: {flagged}")
    write_json(_out(args, "influence.json"), payload)
    print(f"wrote influence.json and index plots to {args.out_dir}")
    return 0


def cmd_variogram(args) -> int:
    data = read_dataset_csv(args.data)
    vario = empirical_variogram(
        data.coords, data.value, n_bins=args.bins, max_dist=args.max_dist
    )
    _write_csv(_out(args, "variogram.csv"), ["center", "semivariance", "count"],
               zip(vario.centers, vario.gamma, map(str, vario.counts)))

    curve_h = curve_g = None
    try:
        spec = _spec_from_args(args)
        fit = wls_variofit(vario, spec)
        curve_h = np.linspace(1e-6, vario.centers.max(), 120)
        curve_g = fit.tau2 + fit.sigma2 * (
            1.0 - correlation(spec.family, spec.kappa, curve_h, fit.phi)
        )
        print(f"fitted curve: sigma2 {fit.sigma2:.4f}  phi {fit.phi:.4f}  tau2 {fit.tau2:.4f}")
    except GeocensError as exc:
        print(f"variogram curve fit skipped: {exc}", file=sys.stderr)
    _atomic_write(
        _out(args, "variogram.svg"),
        svg.variogram_chart(vario.centers, vario.gamma, curve_h, curve_g),
    )
    print(f"wrote variogram.csv and variogram.svg to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocens",
        description="Estimation, prediction, and influence diagnostics for "
        "censored spatial data.",
    )
    parser.add_argument("--version", action="version", version=f"geocens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", type=str, default=".")

    p = sub.add_parser("simulate", help="generate a censored dataset plus hold-out truth")
    common(p)
    _add_model_options(p)
    p.add_argument("--n-est", type=int, required=True)
    p.add_argument("--n-pred", type=int, default=0)
    p.add_argument("--beta", type=str, required=True, help="comma-separated")
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--tau2", type=float, default=0.0)
    p.add_argument("--cens-level", type=float, default=0.0)
    p.add_argument("--cens-type", choices=["left", "right"], default="left")
    p.add_argument("--box", type=str, default="0,1,0,1", help="x0,x1,y0,y1")
    p.add_argument("--covariate-ranges", type=str, default=None, help="lo:hi,lo:hi")
    p.add_argument("--outlier-indices", type=str, default=None)
    p.add_argument("--outlier-sd", type=float, default=5.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="stochastic EM fit of the censored spatial model")
    common(p)
    _add_model_options(p)
    _add_saem_options(p)
    p.add_argument("--data", type=str, required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="spatial prediction at target locations")
    common(p)
    _add_model_options(p)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--targets", type=str, required=True)
    p.add_argument("--fit", type=str, default=None, help="fit.json (saem method)")
    p.add_argument("--data", type=str, default=None)
    p.add_argument("--truth", type=str, default=None,
                   help="optional truth CSV overlaid on the band plot")
    _add_init_options(p)
    p.add_argument("--semi-max-iter", type=int, default=20)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("crossval", help="hold-out comparison of the four methods")
    common(p)
    _add_model_options(p)
    _add_saem_options(p)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--n-est", type=int, required=True,
                   help="first n rows estimate; the rest are scored")
    p.add_argument("--methods", type=str, default="naive1,naive2,seminaive,saem")
    p.add_argument("--semi-max-iter", type=int, default=20)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("diagnose", help="local influence diagnostics of a fit")
    common(p)
    p.add_argument("--fit", type=str, required=True)
    p.add_argument("--data", type=str, default=None,
                   help="optional dataset CSV checked against the fit fingerprint")
    p.add_argument("--c-star", type=float, default=3.0)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("variogram", help="empirical variogram with a fitted curve")
    common(p)
    _add_model_options(p)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--bins", type=int, default=13)
    p.add_argument("--max-dist", type=float, default=None)
    p.set_defaults(func=cmd_variogram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"error: malformed input file ({exc})", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
