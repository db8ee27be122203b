"""Variogram exploration and kriging surfaces.

Estimates the empirical semivariogram of a simulated field, fits the
variogram by weighted least squares to get starting values, fits the full
model, and renders prediction mean / sd surfaces over a regular grid.
"""

import os

import numpy as np

from geocens import (
    CovarianceSpec,
    CovParams,
    Lags,
    ModelParams,
    SimConfig,
    TrendSpec,
    empirical_variogram,
    gaussian_ml_fit,
    krige,
    simulate_scl,
    wls_variofit,
)
from geocens.covariance import correlation, distance_matrix
from geocens.model import build_trend
from geocens.svg import intensity_chart, variogram_chart

spec = CovarianceSpec("gaussian")
truth = CovParams(sigma2=4.0, phi=1.5, tau2=0.4)
sim = simulate_scl(
    SimConfig(
        n_est=150,
        n_pred=0,
        beta=[20.0],
        cov=truth,
        spec=spec,
        cens_level=0.0,
        coord_box=((0.0, 8.0), (0.0, 8.0)),
        seed=29,
    )
)
data = sim.data

vario = empirical_variogram(data.coords, data.value, n_bins=14)
init = wls_variofit(vario, spec)
print(f"weighted variogram fit: sigma2 {init.sigma2:.3f} phi {init.phi:.3f} "
      f"tau2 {init.tau2:.3f}   (truth {truth.sigma2}, {truth.phi}, {truth.tau2})")

x = build_trend(data.coords, None, TrendSpec("cte"))
params, ll, factor, _ = gaussian_ml_fit(
    data.value, x, Lags(distance_matrix(data.coords)), spec, init
)
print(f"maximum likelihood:     sigma2 {params.cov.sigma2:.3f} "
      f"phi {params.cov.phi:.3f} tau2 {params.cov.tau2:.3f}  (loglik {ll:.2f})")

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

curve_h = np.linspace(1e-6, vario.centers.max(), 150)
curve_g = init.tau2 + init.sigma2 * (1 - correlation("gaussian", 0.0, curve_h, init.phi))
with open(os.path.join(out_dir, "variogram.svg"), "w") as handle:
    handle.write(variogram_chart(vario.centers, vario.gamma, curve_h, curve_g))

# kriging surfaces over a 40 x 40 grid
g = np.linspace(0.0, 8.0, 40)
xx, yy = np.meshgrid(g, g)
grid = np.column_stack([xx.ravel(), yy.ravel()])
surface = krige(
    params, x, data.value, data.coords, np.ones((grid.shape[0], 1)), grid, spec,
    factor=factor,  # the fit's own factor of Sigma: nothing is factored again
)
with open(os.path.join(out_dir, "kriging_mean.svg"), "w") as handle:
    handle.write(intensity_chart(g, g, surface.mean, "kriged mean", points=data.coords))
with open(os.path.join(out_dir, "kriging_sd.svg"), "w") as handle:
    handle.write(intensity_chart(g, g, surface.sd, "kriging sd", points=data.coords))
print(f"wrote variogram.svg, kriging_mean.svg, kriging_sd.svg -> {out_dir}")
