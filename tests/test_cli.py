import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import geocens
from geocens import CovarianceSpec, SaemConfig, SpatialDataset, TrendSpec, saem_fit
from geocens.cli import main, read_dataset_csv, write_dataset_csv


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    rc = run_cli(
        "simulate", "--n-est", 40, "--n-pred", 8, "--beta", "10",
        "--sigma2", 2, "--phi", 1, "--tau2", 0.2, "--cens-level", 0.2,
        "--box", "0,6,0,6", "--seed", 3, "--out-dir", out,
    )
    assert rc == 0
    return out


def write_targets(sim, path):
    rows = list(csv.reader(open(sim / "truth.csv")))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y"])
        for r in rows[1:]:
            w.writerow([r[0], r[1]])


FIT_ARGS = [
    "--init-sigma2", 1.5, "--init-phi", 1, "--nugget", 0.1,
    "--m", 8, "--max-iter", 10, "--tol", 0,
    "--lower", "0.05,1e-4", "--upper", "20,10",
]


def test_simulate_roundtrip_into_fit(sim_dir, tmp_path):
    out = tmp_path / "fit"
    rc = run_cli("fit", "--data", sim_dir / "data.csv", *FIT_ARGS,
                 "--seed", 5, "--out-dir", out)
    assert rc == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["version"]
    assert payload["dataset_fingerprint"]
    assert payload["config"]["m"] == 8
    assert len(payload["zhat"]) == 40
    assert "summary" in payload


def test_dataset_csv_roundtrip(sim_dir, tmp_path):
    data = read_dataset_csv(str(sim_dir / "data.csv"))
    assert data.n == 40
    assert data.cens_type == "left"
    path = tmp_path / "copy.csv"
    write_dataset_csv(str(path), data)
    again = read_dataset_csv(str(path))
    np.testing.assert_array_equal(again.value, data.value)
    np.testing.assert_array_equal(again.lower, data.lower)
    assert read_bytes(sim_dir / "data.csv") == read_bytes(path)


def test_dataset_csv_byte_roundtrip_with_covariates_and_bounds(tmp_path):
    rng = np.random.default_rng(8)
    n = 12
    value = rng.normal(5.0, 1.0, n)
    cens = np.zeros(n, dtype=int)
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    cens[[1, 4, 7]] = 1
    lower[1] = value[1]  # right censored
    lower[4], upper[4] = value[4] - 0.5, value[4] + 0.25  # interval censored
    upper[7] = value[7]  # left censored
    data = SpatialDataset(coords=rng.uniform(0, 5, (n, 2)), value=value, cens=cens,
                          lower=lower, upper=upper, x_extra=rng.uniform(0, 1, (n, 2)),
                          cens_type="interval")
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_dataset_csv(str(first), data)
    again = read_dataset_csv(str(first))
    write_dataset_csv(str(second), again)
    assert read_bytes(first) == read_bytes(second)
    assert again.cens_type == "interval"
    for name in ("coords", "value", "cens", "lower", "upper", "x_extra"):
        np.testing.assert_array_equal(getattr(again, name), getattr(data, name))
    rows = list(csv.reader(open(first, newline="")))
    assert rows[0] == ["x", "y", "value", "cens", "lower", "upper", "cov1", "cov2"]
    assert rows[2][3:6] == ["1", repr(float(value[1])), ""]
    assert rows[8][3:6] == ["1", "", repr(float(value[7]))]
    assert rows[1][6:] == [repr(float(v)) for v in data.x_extra[0]]


def test_covariate_trend_simulate_fit_predict(tmp_path):
    from geocens import predict_saem
    from geocens.cli import fit_from_payload
    from geocens.model import build_trend

    out = tmp_path / "cov"
    rc = run_cli(
        "simulate", "--trend", "other", "--covariate-ranges", "0:1,2:5",
        "--n-est", 40, "--n-pred", 6, "--beta", "10,1,-1", "--sigma2", 2, "--phi", 1,
        "--tau2", 0.2, "--cens-level", 0.2, "--box", "0,6,0,6", "--seed", 3, "--out-dir", out,
    )
    assert rc == 0
    truth = list(csv.reader(open(out / "truth.csv", newline="")))
    assert truth[0] == ["x", "y", "value", "cov1", "cov2"]
    with open(out / "targets.csv", "w", newline="") as f:
        csv.writer(f).writerows([r[:2] + r[3:] for r in truth])
    rc = run_cli("fit", "--trend", "other", "--data", out / "data.csv", *FIT_ARGS,
                 "--seed", 5, "--out-dir", out)
    assert rc == 0
    payload = json.loads((out / "fit.json").read_text())
    assert len(payload["params"]["beta"]) == 3
    rc = run_cli("predict", "--method", "saem", "--fit", out / "fit.json",
                 "--targets", out / "targets.csv", "--truth", out / "truth.csv",
                 "--out-dir", out)
    assert rc == 0
    pred = list(csv.reader(open(out / "predictions.csv", newline="")))
    assert [r[:2] for r in pred[1:]] == [r[:2] for r in truth[1:]]
    table = np.array([[float(v) for v in r] for r in truth[1:]])
    coords, covs = table[:, :2], table[:, 3:]
    fit = fit_from_payload(payload)
    want = predict_saem(fit, build_trend(coords, covs, fit.trend), coords)
    assert [r[2] for r in pred[1:]] == [repr(float(v)) for v in want.mean]


def test_cli_determinism_byte_identical(tmp_path):
    # identical command line + seed => byte-identical outputs
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = run_cli(
            "simulate", "--n-est", 30, "--n-pred", 5, "--beta", "8",
            "--sigma2", 1.5, "--phi", 0.8, "--cens-level", 0.15,
            "--box", "0,5,0,5", "--seed", 11, "--out-dir", out,
        )
        assert rc == 0
        rc = run_cli("fit", "--data", out / "data.csv", *FIT_ARGS,
                     "--seed", 9, "--out-dir", out)
        assert rc == 0
        write_targets(out, out / "targets.csv")
        rc = run_cli("predict", "--method", "saem", "--fit", out / "fit.json",
                     "--targets", out / "targets.csv", "--seed", 2, "--out-dir", out)
        assert rc == 0
        rc = run_cli("diagnose", "--fit", out / "fit.json", "--seed", 2,
                     "--out-dir", out)
        assert rc == 0
        rc = run_cli("variogram", "--data", out / "data.csv", "--seed", 2,
                     "--out-dir", out)
        assert rc == 0
        outs.append(out)
    a, b = outs
    for name in sorted(os.listdir(a)):
        if name == "targets.csv":
            continue
        assert read_bytes(a / name) == read_bytes(b / name), name


def test_predict_at_observed_sites_interpolates(tmp_path):
    # exact interpolation: tau2 = 0 data, targets = observed sites
    out = tmp_path / "interp"
    rc = run_cli(
        "simulate", "--n-est", 25, "--n-pred", 0, "--beta", "4",
        "--sigma2", 2, "--phi", 1.5, "--tau2", 0, "--cens-level", 0,
        "--box", "0,4,0,4", "--seed", 21, "--out-dir", out,
    )
    assert rc == 0
    rows = list(csv.reader(open(out / "data.csv")))
    with open(out / "targets.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y"])
        for r in rows[1:]:
            w.writerow([r[0], r[1]])
    rc = run_cli(
        "predict", "--method", "naive1", "--data", out / "data.csv",
        "--targets", out / "targets.csv", "--init-sigma2", 2,
        "--init-phi", 1.5, "--fix-nugget", "--nugget", 0,
        "--seed", 2, "--out-dir", out,
    )
    assert rc == 0
    pred = list(csv.reader(open(out / "predictions.csv")))[1:]
    values = np.array([float(r[2]) for r in rows[1:]])
    means = np.array([float(r[2]) for r in pred])
    sds = np.array([float(r[3]) for r in pred])
    np.testing.assert_allclose(means, values, atol=1e-6)
    assert np.all(sds <= 1e-3)


def test_predict_grid_emits_intensity_charts(tmp_path, sim_dir):
    out = tmp_path / "grid"
    fit_out = tmp_path / "fit"
    rc = run_cli("fit", "--data", sim_dir / "data.csv", *FIT_ARGS,
                 "--seed", 5, "--out-dir", fit_out)
    assert rc == 0
    g = np.linspace(0.5, 5.5, 6)
    with open(tmp_path / "grid.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y"])
        for yv in g:
            for xv in g:
                w.writerow([repr(float(xv)), repr(float(yv))])
    rc = run_cli("predict", "--method", "saem", "--fit", fit_out / "fit.json",
                 "--targets", tmp_path / "grid.csv", "--seed", 2, "--out-dir", out)
    assert rc == 0
    assert (out / "prediction_mean_grid.svg").exists()
    assert (out / "prediction_sd_grid.svg").exists()
    assert (out / "predictions.svg").exists()


def test_crossval_table(tmp_path):
    out = tmp_path / "cv"
    rc = run_cli(
        "simulate", "--n-est", 36, "--n-pred", 0, "--beta", "10",
        "--sigma2", 2, "--phi", 1, "--tau2", 0.1, "--cens-level", 0,
        "--box", "0,5,0,5", "--seed", 31, "--out-dir", out,
    )
    assert rc == 0
    # censor the lowest of the first 28 rows manually so the tail stays clean
    data = read_dataset_csv(str(out / "data.csv"))
    value = data.value.copy()
    cens = np.zeros(36, dtype=int)
    k = np.argsort(value[:28])[:5]
    lod = np.sort(value[:28])[4]
    cens[k] = 1
    upper = np.full(36, np.inf)
    upper[k] = lod
    value[k] = lod
    from geocens import SpatialDataset

    write_dataset_csv(
        str(out / "cens.csv"),
        SpatialDataset(coords=data.coords, value=value, cens=cens,
                       lower=None, upper=upper, cens_type="left"),
    )
    rc = run_cli(
        "crossval", "--data", out / "cens.csv", "--n-est", 28,
        "--methods", "naive1,naive2,seminaive", "--init-sigma2", 2,
        "--init-phi", 1, "--nugget", 0.1, "--seed", 4, "--out-dir", out,
    )
    assert rc == 0
    rows = list(csv.reader(open(out / "mspe_table.csv")))
    assert rows[0][-1] == "method"
    assert [r[-1] for r in rows[1:]] == ["naive1", "naive2", "seminaive"]
    rmspe = [float(r[-2]) for r in rows[1:]]
    assert all(v > 0 for v in rmspe)


def test_fit_interval_data_without_initial_values(tmp_path, sim_dir):
    data = read_dataset_csv(str(sim_dir / "data.csv"))
    obs = np.flatnonzero(data.cens == 0)[:6]
    cens, lower, upper = data.cens.copy(), data.lower.copy(), data.upper.copy()
    cens[obs] = 1
    lower[obs], upper[obs] = data.value[obs] - 0.5, data.value[obs] + 0.25
    path = tmp_path / "interval.csv"
    write_dataset_csv(str(path), SpatialDataset(
        coords=data.coords, value=data.value, cens=cens, lower=lower, upper=upper,
        cens_type="interval"))
    rc = run_cli("fit", "--data", path, "--m", 8, "--max-iter", 6, "--tol", 0,
                 "--seed", 5, "--out-dir", tmp_path / "fit")
    assert rc == 0
    assert (tmp_path / "fit" / "fit.json").exists()


@pytest.mark.parametrize("bounds", [("", ""), ("nan", ""), ("", "nan")],
                         ids=["no-finite-bound", "nan-lower", "nan-upper"])
def test_fit_rejects_censored_row_without_a_usable_bound(tmp_path, sim_dir, capsys, bounds):
    # without initial values such a row used to reach the automatic start
    # and fail there with an unrelated "sigma2 must be > 0"
    rows = list(csv.reader(open(sim_dir / "data.csv", newline="")))
    row = next(r for r in rows[1:] if r[3] == "0")
    row[3:6] = ["1", *bounds]
    path = tmp_path / "bad_bounds.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    capsys.readouterr()
    rc = run_cli("fit", "--data", path, "--m", 5, "--max-iter", 3, "--seed", 1,
                 "--out-dir", tmp_path / "fit")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bound" in err
    assert not (tmp_path / "fit").exists()


@pytest.fixture()
def covariate_run(tmp_path):
    """A simulated dataset with two covariates, its targets and a fit."""
    out = tmp_path / "cov"
    assert run_cli(
        "simulate", "--trend", "other", "--covariate-ranges", "0:1,2:5",
        "--n-est", 30, "--n-pred", 4, "--beta", "10,1,-1", "--sigma2", 2, "--phi", 1,
        "--tau2", 0.2, "--cens-level", 0.2, "--box", "0,6,0,6", "--seed", 3, "--out-dir", out,
    ) == 0
    truth = list(csv.reader(open(out / "truth.csv", newline="")))
    with open(out / "targets.csv", "w", newline="") as f:
        csv.writer(f).writerows([r[:2] + r[3:] for r in truth])
    assert run_cli("fit", "--trend", "other", "--data", out / "data.csv", "--init-sigma2", 1.5,
                   "--init-phi", 1, "--m", 5, "--max-iter", 3, "--seed", 5, "--out-dir", out) == 0
    return out


@pytest.mark.parametrize("command, table, column, cell, field", [
    ("fit-start", "data.csv", 0, "nan", "coords"),
    ("fit-start", "data.csv", 1, "inf", "coords"),
    ("fit-start", "data.csv", 6, "nan", "x_extra"),
    ("fit", "data.csv", 0, "nan", "coords"),
    ("saem", "targets.csv", 1, "nan", "coords_pred"),
    ("naive1", "targets.csv", 0, "nan", "coords_pred"),
    ("saem", "targets.csv", 2, "nan", "covariates"),
], ids=["fit-nan-coordinate", "fit-inf-coordinate", "fit-nan-covariate",
        "fit-without-start-nan-coordinate", "predict-saem-nan-target",
        "predict-naive1-nan-target", "predict-saem-nan-target-covariate"])
def test_non_finite_coordinates_and_covariates_exit_2(tmp_path, covariate_run, capsys,
                                                      command, table, column, cell, field):
    # they used to exit 1 with a traceback from the Cholesky factor, the
    # trend matrix's SVD or krige, or be reported as a variogram error
    rows = list(csv.reader(open(covariate_run / table, newline="")))
    rows[2][column] = cell
    bad = tmp_path / table
    with open(bad, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    data, out = covariate_run / "data.csv", tmp_path / "out"
    argv = {
        "fit-start": ["fit", "--trend", "other", "--data", bad, "--init-sigma2", 1.5,
                      "--init-phi", 1, "--max-iter", 3],
        "fit": ["fit", "--data", bad, "--max-iter", 3],
        "saem": ["predict", "--method", "saem", "--fit", covariate_run / "fit.json",
                 "--targets", bad],
        "naive1": ["predict", "--method", "naive1", "--trend", "other", "--data", data,
                   "--targets", bad],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        rc = run_cli("simulate", "--n-est", 20, "--n-pred", 4, "--beta", "10",
                     "--sigma2", 2, "--phi", 1, "--cens-level", 0.2, "--seed", 3,
                     "--out-dir", tmp_path)
    finally:
        os.umask(previous)
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    assert "data.csv" in names and "manifest.json" in names
    assert {name: os.stat(tmp_path / name).st_mode & 0o777 for name in names} == dict.fromkeys(
        names, mode)


def test_diagnose_fingerprint_mismatch_exit_2(tmp_path, sim_dir):
    fit_out = tmp_path / "fit"
    rc = run_cli("fit", "--data", sim_dir / "data.csv", *FIT_ARGS,
                 "--seed", 5, "--out-dir", fit_out)
    assert rc == 0
    other = tmp_path / "other"
    rc = run_cli(
        "simulate", "--n-est", 40, "--n-pred", 8, "--beta", "10",
        "--sigma2", 2, "--phi", 1, "--tau2", 0.2, "--cens-level", 0.2,
        "--box", "0,6,0,6", "--seed", 99, "--out-dir", other,
    )
    assert rc == 0
    rc = run_cli("diagnose", "--fit", fit_out / "fit.json",
                 "--data", other / "data.csv", "--out-dir", tmp_path)
    assert rc == 2


def test_validation_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert run_cli("fit", "--data", bad, "--out-dir", tmp_path) == 2
    missing = tmp_path / "missing.csv"
    assert run_cli("variogram", "--data", missing, "--out-dir", tmp_path) == 2
    assert run_cli(
        "simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1,
        "--phi", 1, "--box", "0,1", "--out-dir", tmp_path,
    ) == 2


def test_numerical_failure_exit_3(tmp_path, sim_dir, monkeypatch):
    from geocens.errors import NumericalError
    import geocens.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("iteration 3: covariance search ended on a non-finite objective")

    monkeypatch.setattr(cli_mod, "saem_fit", boom)
    rc = run_cli("fit", "--data", sim_dir / "data.csv", *FIT_ARGS,
                 "--out-dir", tmp_path)
    assert rc == 3


def test_variogram_outputs(tmp_path, sim_dir):
    out = tmp_path / "vario"
    rc = run_cli("variogram", "--data", sim_dir / "data.csv", "--bins", 10,
                 "--out-dir", out)
    assert rc == 0
    rows = list(csv.reader(open(out / "variogram.csv")))
    assert rows[0] == ["center", "semivariance", "count"]
    assert len(rows) > 3
    svg_text = (out / "variogram.svg").read_text()
    assert svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>")


def test_variogram_curve_stays_on_the_data_scale(tmp_path, capsys):
    # on this right-censored draw an unbounded weighted fit slides along the
    # variogram ridge to sigma2 ~ 1e4, phi ~ 3e4
    sim = tmp_path / "sim"
    assert run_cli(
        "simulate", "--cens-type", "right", "--n-est", 40, "--n-pred", 8, "--beta", 10,
        "--sigma2", 2, "--phi", 1, "--tau2", 0.2, "--cens-level", 0.2,
        "--box", "0,6,0,6", "--seed", 7, "--out-dir", sim,
    ) == 0
    capsys.readouterr()
    out = tmp_path / "vario"
    assert run_cli("variogram", "--data", sim / "data.csv", "--out-dir", out) == 0
    words = capsys.readouterr().out.split()
    fitted = {k: float(words[words.index(k) + 1]) for k in ("sigma2", "phi", "tau2")}
    gamma_max = max(float(r[1]) for r in list(csv.reader(open(out / "variogram.csv")))[1:])
    max_dist = 0.5 * pdist(read_dataset_csv(sim / "data.csv").coords).max()
    slack = 1e-4  # the CLI prints four decimals
    assert fitted["sigma2"] <= 2.0 * gamma_max + slack
    assert fitted["tau2"] <= 2.0 * gamma_max + slack
    assert fitted["phi"] <= max_dist + slack


def test_diagnose_outputs_all_schemes(tmp_path, sim_dir):
    fit_out = tmp_path / "fit"
    rc = run_cli("fit", "--data", sim_dir / "data.csv", *FIT_ARGS,
                 "--seed", 5, "--out-dir", fit_out)
    assert rc == 0
    out = tmp_path / "diag"
    rc = run_cli("diagnose", "--fit", fit_out / "fit.json",
                 "--data", sim_dir / "data.csv", "--c-star", 3, "--out-dir", out)
    assert rc == 0
    payload = json.loads((out / "influence.json").read_text())
    for name in ("response", "scale", "explanatory"):
        scheme = payload["schemes"][name]
        assert scheme is not None
        m0 = np.array(scheme["m0"])
        assert m0.sum() == pytest.approx(1.0, abs=1e-8)
        assert (out / f"m0_{name}.svg").exists()


def test_diagnose_reports_hessian_definiteness(tmp_path, sim_dir, monkeypatch, capsys):
    import geocens.influence as inf

    fit_out = tmp_path / "fit"
    rc = run_cli("fit", "--data", sim_dir / "data.csv", *FIT_ARGS,
                 "--seed", 5, "--out-dir", fit_out)
    assert rc == 0
    capsys.readouterr()
    rc = run_cli("diagnose", "--fit", fit_out / "fit.json", "--out-dir", tmp_path / "a")
    assert rc == 0
    payload = json.loads((tmp_path / "a" / "influence.json").read_text())
    assert payload["hessian_negative_definite"] is True
    assert len(payload["hessian_eigenvalues"]) == 4  # p=1 plus (sigma2, phi, tau2)
    assert min(payload["hessian_eigenvalues"]) > 0
    assert "warning" not in capsys.readouterr().err

    real_hessian = inf._hessian
    monkeypatch.setattr(inf, "_hessian", lambda shared: -real_hessian(shared))
    rc = run_cli("diagnose", "--fit", fit_out / "fit.json", "--out-dir", tmp_path / "b")
    assert rc == 0
    payload = json.loads((tmp_path / "b" / "influence.json").read_text())
    assert payload["hessian_negative_definite"] is False
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(warnings) == 1 and "not negative definite" in warnings[0]


def test_predict_rejects_truth_file_as_targets(tmp_path, sim_dir):
    # truth.csv has header x,y,value: "value" is not a covariate column
    rc = run_cli("predict", "--method", "naive1", "--data", sim_dir / "data.csv",
                 "--targets", sim_dir / "truth.csv", "--out-dir", tmp_path)
    assert rc == 2
    assert not (tmp_path / "predictions.csv").exists()


def test_predict_rejects_targets_row_with_extra_field(tmp_path, sim_dir):
    targets = tmp_path / "targets.csv"
    write_targets(sim_dir, targets)
    with open(targets, "a", newline="") as f:
        csv.writer(f).writerow(["1.0", "2.0", "3.0"])
    rc = run_cli("predict", "--method", "naive1", "--data", sim_dir / "data.csv",
                 "--targets", targets, "--out-dir", tmp_path)
    assert rc == 2
    assert not (tmp_path / "predictions.csv").exists()


def test_fit_payload_roundtrip_keeps_censored_second_moment(sim_dir):
    from geocens.cli import _json_default, fit_from_payload, fit_to_payload

    data = read_dataset_csv(str(sim_dir / "data.csv"))
    fit = saem_fit(data, TrendSpec("cte"), CovarianceSpec("exponential"), SaemConfig(
        m=8, max_iter=6, init_sigma2=1.5, init_phi=1.0, init_nugget=0.1,
        lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=5,
    ))
    text = json.dumps(fit_to_payload(fit), default=_json_default)
    again = fit_from_payload(json.loads(text))
    assert fit.zz_cc.shape == (data.cens.sum(),) * 2
    assert np.array_equal(again.zz_cc, fit.zz_cc)
    assert np.array_equal(again.zhat, fit.zhat)


def test_fit_payload_roundtrip_keeps_every_config_field(sim_dir):
    from dataclasses import asdict

    from geocens.cli import _json_default, fit_from_payload, fit_to_payload

    data = read_dataset_csv(str(sim_dir / "data.csv"))
    config = SaemConfig(
        m=6, max_iter=4, pc=0.3, init_sigma2=1.5, init_phi=1.0, init_nugget=0.1,
        lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=5,
    )
    fit = saem_fit(data, TrendSpec("cte"), CovarianceSpec("exponential"), config)
    payload = json.loads(json.dumps(fit_to_payload(fit), default=_json_default))
    assert asdict(fit_from_payload(payload).config) == asdict(config)
    assert list(payload["config"]) == [
        "m", "max_iter", "pc", "init_sigma2", "init_phi", "init_nugget",
        "lower", "upper", "tol", "seed", "trend", "cov_model", "kappa", "fix_nugget", "nugget",
    ]


def test_fit_payload_with_retired_config_keys_loads(sim_dir):
    # fit.json files of earlier versions also carry the Gibbs burn-in, the
    # two rectangle tolerances and the lattice cap, now fixed in the code,
    # and the trace-summary share perc, now gone
    from geocens.cli import _json_default, fit_from_payload, fit_to_payload

    data = read_dataset_csv(str(sim_dir / "data.csv"))
    fit = saem_fit(data, TrendSpec("cte"), CovarianceSpec("exponential"), SaemConfig(
        m=6, max_iter=4, init_sigma2=1.5, init_phi=1.0, init_nugget=0.1,
        lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=5,
    ))
    payload = json.loads(json.dumps(fit_to_payload(fit), default=_json_default))
    retired = {"gibbs_burn_in": 20, "monitor_eps": 1e-3, "final_eps": 1e-4,
               "rect_max_points": 100_000, "perc": 0.25}
    keys = list(payload["config"])
    at = keys.index("seed") + 1
    payload["config"] = {
        **{k: payload["config"][k] for k in keys[:at]},
        **retired,
        **{k: payload["config"][k] for k in keys[at:]},
    }
    again = fit_from_payload(payload)
    assert again.config == fit.config
    assert np.array_equal(again.params.as_array(), fit.params.as_array())
    # and a start given by half, which those versions recorded but did not
    # use, loads as no start
    payload["config"]["init_phi"] = None
    assert fit_from_payload(payload).config.init_sigma2 is None


def test_fit_payload_drops_the_likelihood_trace_and_old_files_load(sim_dir):
    # the likelihood is estimated once per fit; fit.json files of earlier
    # versions also carry a per-iteration likelihood trace
    from geocens.cli import _json_default, fit_from_payload, fit_to_payload

    data = read_dataset_csv(str(sim_dir / "data.csv"))
    fit = saem_fit(data, TrendSpec("cte"), CovarianceSpec("exponential"), SaemConfig(
        m=6, max_iter=5, init_sigma2=1.5, init_phi=1.0, init_nugget=0.1,
        lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=5,
    ))
    payload = json.loads(json.dumps(fit_to_payload(fit), default=_json_default))
    assert "trace_loglik" not in payload
    payload["trace_loglik"] = [None, None, None, None, payload["loglik"]]
    again = fit_from_payload(payload)
    assert again.loglik.value == fit.loglik.value
    assert np.array_equal(again.trace_params, fit.trace_params)


def test_default_tol_fit_does_not_stop_on_monte_carlo_noise(tmp_path):
    # 40% censored, n=150, 20 iterations with the default --tol: a rule
    # comparing two noisy likelihood estimates stopped this fit "converged"
    # at iteration 6; the path rule needs two windows of post-cut iterates
    # and here runs to the cap
    rc = run_cli(
        "simulate", "--n-est", 150, "--n-pred", 10, "--beta", 10, "--sigma2", 2,
        "--phi", 1, "--tau2", 0.2, "--cens-level", 0.4, "--box", "0,6,0,6",
        "--seed", 3, "--out-dir", tmp_path,
    )
    assert rc == 0
    rc = run_cli("fit", "--data", tmp_path / "data.csv", "--max-iter", 20, "--seed", 5,
                 "--out-dir", tmp_path)
    assert rc == 0
    payload = json.loads((tmp_path / "fit.json").read_text())
    assert payload["config"]["tol"] > 0
    assert payload["iterations_used"] == 20
    assert not payload["converged"]


@pytest.mark.parametrize("option", [
    ["--covariate-ranges", "0:x"],
    ["--outlier-indices", "1,a"],
    ["--outlier-indices", "99"],
], ids=["covariate-range", "outlier-index-text", "outlier-index-range"])
def test_simulate_rejects_malformed_options_exit_2(tmp_path, capsys, option):
    rc = run_cli(
        "simulate", "--n-est", 40, "--n-pred", 8, "--beta", "10",
        "--sigma2", 2, "--phi", 1, "--tau2", 0.2, "--cens-level", 0.2,
        "--box", "0,6,0,6", "--seed", 3, *option, "--out-dir", tmp_path,
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "data.csv").exists()


def test_predict_rejects_truth_that_does_not_match_the_targets(tmp_path, sim_dir):
    targets = tmp_path / "targets.csv"
    write_targets(sim_dir, targets)
    lines = (sim_dir / "truth.csv").read_text().splitlines(True)
    short = tmp_path / "short_truth.csv"
    short.write_text("".join(lines[:3]))
    reordered = tmp_path / "reordered_truth.csv"
    reordered.write_text("".join(lines[:1] + lines[:0:-1]))
    for truth, want in ((sim_dir / "truth.csv", 0), (short, 2), (reordered, 2),
                        (sim_dir / "data.csv", 2)):
        out = tmp_path / truth.stem
        rc = run_cli("predict", "--method", "naive1", "--data", sim_dir / "data.csv",
                     "--targets", targets, "--truth", truth, "--out-dir", out)
        assert rc == want
        assert (out / "predictions.csv").exists() == (want == 0)


MALFORMED_FITS = {
    "fit_short_zzhat": lambda f: f.update(zzhat=f["zzhat"][:-1]),
    "fit_short_zhat": lambda f: f.update(zhat=f["zhat"][:-1]),
    "fit_long_beta": lambda f: f["params"].update(beta=f["params"]["beta"] * 2),
    "fit_text_sigma2": lambda f: f["params"].update(sigma2="x"),
}


@pytest.mark.parametrize("argv", [
    ["crossval", "--data", "{data}", "--n-est", 30, "--methods", ","],
    ["variogram", "--data", "{data}", "--bins", 0],
    ["predict", "--method", "naive1", "--data", "{data}", "--targets", "{header_only}"],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1, "--phi", 1, "--seed", -1],
    ["fit", "--data", "{data}", "--seed", -1],
    ["fit", "--data", "{data}", "--lower", 0.05, "--upper", 20],
    ["variogram", "--data", "{data}", "--max-dist", -1],
    ["variogram", "--data", "{data}", "--max-dist", 0.01],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1, "--phi", 1, "--tau2", "nan"],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", "inf", "--phi", 1],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1, "--phi", "inf"],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1, "--phi", 1,
     "--cov-model", "matern", "--kappa", "inf"],
    ["fit", "--data", "{data}", "--fix-nugget", "--nugget", "nan"],
    ["fit", "--data", "{data}", "--tol", "nan"],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1, "--phi", 1, "--box", "0,nan,0,6"],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1, "--phi", 1, "--box", "0,inf,0,6"],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1, "--phi", 1, "--box", "6,0,0,6"],
    ["diagnose", "--fit", "{fit}", "--c-star", "nan"],
    ["diagnose", "--fit", "{fit}", "--c-star", "inf"],
    ["fit", "--data", "{data}", "--init-sigma2", 1.5],
    ["fit", "--data", "{data}", "--init-phi", 1],
    ["predict", "--method", "naive1", "--data", "{data}", "--targets", "{targets}",
     "--init-sigma2", 1.5],
    ["crossval", "--data", "{data}", "--n-est", 30, "--methods", "naive1", "--init-phi", 1],
    ["fit", "--data", "{data}", "--init-sigma2", -1.5, "--init-phi", 1],
    ["fit", "--data", "{data}", "--init-sigma2", 1.5, "--init-phi", "inf"],
    ["fit", "--data", "{data}", "--nugget", "nan"],
    ["predict", "--method", "seminaive", "--data", "{data}", "--targets", "{targets}",
     "--init-sigma2", 1.5, "--init-phi", 1, "--nugget", -0.1],
    ["diagnose", "--fit", "{fit_short_zzhat}"],
    ["predict", "--method", "saem", "--fit", "{fit_short_zhat}", "--targets", "{targets}"],
    ["predict", "--method", "saem", "--fit", "{fit_long_beta}", "--targets", "{targets}"],
    ["diagnose", "--fit", "{fit_text_sigma2}"],
    ["simulate", "--n-est", 10, "--beta", "1", "--sigma2", 1, "--phi", 1,
     "--outlier-indices", "1", "--outlier-sd", "nan"],
    ["fit", "--data", "{data}", "--upper", "inf,10", "--max-iter", 3],
    ["fit", "--data", "{data}", "--upper", "20,inf", "--max-iter", 3],
    ["fit", "--data", "{data}", "--lower", "0,0", "--max-iter", 3],
    ["fit", "--data", "{data}", "--lower", "0.05,-0.1", "--max-iter", 3],
    ["crossval", "--data", "{data}", "--n-est", 30, "--methods", "saem", "--upper", "inf,10",
     "--max-iter", 3],
], ids=["crossval-no-methods", "variogram-zero-bins", "predict-header-only-targets",
        "simulate-negative-seed", "fit-negative-seed", "fit-free-nugget-one-component-box",
        "variogram-negative-max-dist", "variogram-max-dist-below-every-pair",
        "simulate-nan-nugget", "simulate-infinite-sill", "simulate-infinite-range",
        "simulate-infinite-matern-smoothness",
        "fit-nan-fixed-nugget", "fit-nan-tol", "simulate-nan-box", "simulate-infinite-box",
        "simulate-reversed-box", "diagnose-nan-c-star", "diagnose-infinite-c-star",
        "fit-sigma2-start-without-phi", "fit-phi-start-without-sigma2",
        "predict-sigma2-start-without-phi", "crossval-phi-start-without-sigma2",
        "fit-negative-sigma2-start", "fit-infinite-phi-start", "fit-nan-start-nugget",
        "predict-negative-start-nugget", "diagnose-truncated-zzhat", "predict-truncated-zhat",
        "predict-beta-too-long", "diagnose-text-sigma2", "simulate-nan-outlier-sd",
        "fit-infinite-upper-phi", "fit-infinite-upper-nu2", "fit-zero-lower-phi",
        "fit-negative-lower-nu2", "crossval-infinite-upper-phi"])
def test_bad_input_exits_2_with_error_line(tmp_path, sim_dir, capsys, argv):
    header_only = tmp_path / "targets.csv"
    header_only.write_text("x,y\r\n")
    targets = tmp_path / "targets_all.csv"
    write_targets(sim_dir, targets)
    paths = {"data": sim_dir / "data.csv", "header_only": header_only, "targets": targets,
             "fit": tmp_path / "fit" / "fit.json"}
    if any(str(a).startswith("{fit") for a in argv):
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--max-iter", 3,
                       "--out-dir", tmp_path / "fit") == 0
        # fit files whose arrays or parameters do not fit the dataset
        for name, edit in MALFORMED_FITS.items():
            payload = json.loads(paths["fit"].read_text())
            edit(payload)
            paths[name] = tmp_path / "fit" / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
    capsys.readouterr()
    rc = run_cli(*[str(a).format(**paths) for a in argv], "--out-dir", tmp_path / "out")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    [],
    ["variogram", "--data", "{data}", "--out-dir", "{out}"],
    ["fit", "--data", "{data}", "--m", "8", "--max-iter", "6", "--tol", "0", "--out-dir", "{out}"],
], ids=["import", "variogram", "fit-without-start"])
def test_cli_import_leaves_scipy_optimize_out(tmp_path, sim_dir, argv):
    # scipy.optimize takes over 100 ms to import and no geocens code uses
    # it: neither importing the CLI nor the variogram fit, which the
    # variogram command and every fit without a start run; a fresh
    # interpreter shows it
    src = os.path.dirname(os.path.dirname(os.path.abspath(geocens.__file__)))
    code = (
        "import sys, geocens.cli\n"
        "if len(sys.argv) > 1 and geocens.cli.main(sys.argv[1:]) != 0:\n"
        "    sys.exit(2)\n"
        "sys.exit('scipy.optimize' in sys.modules)"
    )
    args = [a.format(data=sim_dir / "data.csv", out=tmp_path / "out") for a in argv]
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code, *args], env=env).returncode == 0


def test_cli_import_leaves_scipy_spatial_out():
    # distances are numpy arithmetic; scipy.spatial is not imported at all
    src = os.path.dirname(os.path.dirname(os.path.abspath(geocens.__file__)))
    code = "import sys, geocens.cli; sys.exit('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_fit_summary_reports_the_loglik_monte_carlo_error(sim_dir):
    from geocens.cli import fit_summary_text

    data = read_dataset_csv(str(sim_dir / "data.csv"))
    fit = saem_fit(data, TrendSpec("cte"), CovarianceSpec("exponential"), SaemConfig(
        m=6, max_iter=4, init_sigma2=1.5, init_phi=1.0, init_nugget=0.1,
        lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=5,
    ))
    assert data.n_censored > 1
    assert 0.0 < fit.loglik.se <= 1e-2 and fit.loglik.n_points >= 1_000
    lines = fit_summary_text(fit).splitlines()
    assert f"Loglik Monte Carlo se {fit.loglik.se:.3g} ({fit.loglik.n_points} points)" in lines


WRITER_FAMILIES = [
    CovarianceSpec("exponential"),
    CovarianceSpec("gaussian"),
    CovarianceSpec("spherical"),
    CovarianceSpec("matern", kappa=1.5),
    CovarianceSpec("matern", kappa=0.3),
    CovarianceSpec("powered-exponential", kappa=1.3),
]
WRITER_NUGGETS = {"free": {}, "fixed-0.2": {"nugget_fixed": True, "fixed_nugget_value": 0.2},
                  "fixed-0": {"nugget_fixed": True, "fixed_nugget_value": 0.0}}


def small_fit(spec=CovarianceSpec("exponential"), cens_level=0.2, n=40):
    sim = geocens.simulate_scl(geocens.SimConfig(
        n_est=n, n_pred=0, beta=[10.0], cov=geocens.CovParams(sigma2=2.0, phi=1.0, tau2=0.2),
        spec=CovarianceSpec("exponential"), cens_level=cens_level,
        coord_box=((0.0, 6.0), (0.0, 6.0)), seed=3,
    ))
    return saem_fit(sim.data, TrendSpec("cte"), spec, SaemConfig(
        m=4, max_iter=3, init_sigma2=1.5, init_phi=1.0, init_nugget=0.1,
        lower=(0.05, 1e-4), upper=(20.0, 10.0), tol=0.0, seed=5,
    ))


def json_module_bytes(payload) -> bytes:
    from geocens.cli import _json_default

    return (json.dumps(payload, default=_json_default) + "\n").encode()


def streamed_rows(monkeypatch):
    """A list that gains one entry each time a symmetric matrix is streamed."""
    from geocens import cli

    calls, rows = [], cli._symmetric_rows
    monkeypatch.setattr(cli, "_symmetric_rows", lambda mat: calls.append(1) or rows(mat))
    return calls


@pytest.mark.parametrize("nugget", list(WRITER_NUGGETS))
@pytest.mark.parametrize("spec", WRITER_FAMILIES, ids=lambda s: f"{s.family}-{s.kappa}")
def test_fit_json_is_the_json_module_text(tmp_path, monkeypatch, spec, nugget):
    # zzhat is streamed row by row, each symmetric pair formatted once, and
    # the file is byte for byte what json.dumps writes; it loads to the same fit
    from geocens.cli import fit_from_payload, fit_to_payload, write_json

    fit = small_fit(dataclasses.replace(spec, **WRITER_NUGGETS[nugget]))
    calls = streamed_rows(monkeypatch)
    payload = fit_to_payload(fit)
    write_json(tmp_path / "fit.json", payload)
    assert calls == [1]
    assert read_bytes(tmp_path / "fit.json") == json_module_bytes(payload)
    again = fit_from_payload(json.loads(read_bytes(tmp_path / "fit.json")))
    old = fit_from_payload(json.loads(json_module_bytes(payload)))
    for name in ("zhat", "zz_cc", "trace_params", "x"):
        assert np.array_equal(getattr(again, name), getattr(old, name))
    assert again.params == old.params and again.config == old.config


def fit_payload_without_censoring():
    from geocens.cli import fit_to_payload

    return fit_to_payload(small_fit(cens_level=0.0))


@pytest.mark.parametrize("payload", [
    pytest.param(fit_payload_without_censoring, id="no-censored-site"),
    pytest.param(lambda: {"zzhat": np.array([[2.5]]), "n": 1}, id="n-1"),
    pytest.param(lambda: {"a": np.zeros((0, 0))}, id="n-0"),
    pytest.param(lambda: {"m": np.array([[np.nan, np.inf, -0.0], [np.inf, 1e-310, -np.inf],
                                         [-0.0, -np.inf, 0.0]]), "after": [1, None]},
                 id="nan-inf-negative-zero"),
])
def test_symmetric_matrices_stream_as_json_spells_them(tmp_path, monkeypatch, payload):
    from geocens.cli import write_json

    payload = payload()
    calls = streamed_rows(monkeypatch)
    write_json(tmp_path / "out.json", payload)
    assert calls == [1]
    assert read_bytes(tmp_path / "out.json") == json_module_bytes(payload)


@pytest.mark.parametrize("mat", [
    np.arange(9.0).reshape(3, 3),
    np.array([[1.0, 0.0], [-0.0, 1.0]]),
    np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.float32),
    np.arange(4).reshape(2, 2) @ np.arange(4).reshape(2, 2).T,
], ids=["asymmetric", "signed-zero-mirror", "float32", "integer"])
def test_other_square_arrays_take_the_json_module_path(tmp_path, monkeypatch, mat):
    from geocens.cli import write_json

    calls = streamed_rows(monkeypatch)
    payload = {"m": mat, "x": 1.5}
    write_json(tmp_path / "out.json", payload)
    assert calls == []
    assert read_bytes(tmp_path / "out.json") == json_module_bytes(payload)


def test_streamed_fit_json_peak_memory_is_below_the_json_module_path(tmp_path):
    # n = 500: the json module's path builds 250 000 floats and the whole text
    import tracemalloc

    from geocens.cli import _atomic_write, _json_default, fit_to_payload, write_json

    fit = small_fit(n=500, cens_level=0.1)

    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    new = peak(lambda: write_json(tmp_path / "new.json", fit_to_payload(fit)))
    old = peak(lambda: _atomic_write(
        tmp_path / "old.json", json.dumps(fit_to_payload(fit), default=_json_default) + "\n"))
    assert read_bytes(tmp_path / "new.json") == read_bytes(tmp_path / "old.json")
    assert new <= 0.7 * old
