"""Run-time span tracing of geocens layers.

Wrappers are installed on module attributes for the duration of a traced
round and removed afterwards.  A function is wrapped at every attribute of
every geocens module through which it is looked up (``tmvn_gibbs`` on both
``geocens.saem`` and ``geocens.mvn``, scipy's ``cho_solve`` at each geocens
module that imported it), so calls made inside the package are seen too.
Each call records one span: its name, its parent span, start and end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

import geocens
from geocens import cli, covariance, influence, model, mvn, predict, saem, svg
from scipy.linalg import cho_solve as _scipy_cho_solve

MODULES = (geocens, covariance, mvn, model, saem, predict, influence, cli)


def _tmvn_coord_updates(bound, out):
    a = bound.arguments
    dim = len(a["mean"])
    return dim * (a["burn_in"] + a["n_samples"] * a["thin"])


def _rhs_cols(bound, out):
    b = bound.arguments["b"]
    return 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]


def _text_bytes(bound, out):
    return len(bound.arguments["content"].encode())


# (span name, module holding the original, attribute, counters)
# A counter maps (bound arguments, result) to a number added to its total.
TARGETS = [
    ("covariance.corr_matrix", covariance, "corr_matrix",
     {"covariance.corr_pairs": lambda b, o: o.shape[0] * (o.shape[0] - 1) // 2}),
    ("covariance.kv", covariance, "kv", {}),
    ("covariance.spd_cholesky", covariance, "spd_cholesky",
     {"covariance.cholesky_gflop": lambda b, o: o.shape[0] ** 3 / 3e9}),
    ("covariance.dsigma", covariance, "dsigma", {}),
    ("covariance.d2sigma", covariance, "d2sigma", {}),
    ("linalg.cho_solve", None, "cho_solve", {"linalg.cho_solve.rhs_cols": _rhs_cols}),
    ("mvn.tmvn_gibbs", mvn, "tmvn_gibbs", {"mvn.gibbs_coord_updates": _tmvn_coord_updates}),
    ("mvn.mvn_rect_prob", mvn, "mvn_rect_prob",
     {"mvn.rect_points": lambda b, o: o.n_points,
      "mvn.rect_hit_cap": lambda b, o: int(o.hit_cap)}),
    ("model.loglik", model, "loglik", {}),
    ("model.conditional_given_obs", model, "conditional_given_obs", {}),
    ("saem.saem_fit", saem, "saem_fit", {"saem.iterations": lambda b, o: o.iterations_used}),
    ("saem.cm_step", saem, "cm_step", {}),
    ("predict.gaussian_ml_fit", predict, "gaussian_ml_fit", {}),
    ("predict.krige", predict, "krige", {}),
    ("predict.predict_seminaive", predict, "predict_seminaive", {}),
    ("predict.predict_naive", predict, "predict_naive", {}),
    ("predict.predict_saem", predict, "predict_saem", {}),
    ("predict.cross_validate", predict, "cross_validate", {}),
    ("predict.empirical_variogram", predict, "empirical_variogram", {}),
    ("influence.local_influence", influence, "local_influence", {}),
    ("influence.q_hessian", influence, "q_hessian", {}),
    ("influence.delta", influence, "delta_response", {}),
    ("influence.delta", influence, "delta_scale", {}),
    ("influence.delta", influence, "delta_explanatory", {}),
    ("influence.curvature_matrix", influence, "curvature_matrix", {}),
    ("cli.main", cli, "main", {}),
    ("cli.io", cli, "read_dataset_csv", {}),
    ("cli.io", cli, "read_targets_csv", {}),
    ("cli.io", cli, "write_dataset_csv", {}),
    ("cli.io", cli, "write_json", {}),
    ("cli.io", cli, "fit_to_payload", {}),
    ("cli.io", cli, "fit_from_payload", {}),
    # the single point through which every CLI output file is written
    ("cli.io", cli, "_atomic_write", {"cli.bytes_written": _text_bytes}),
    ("svg", svg, "prediction_band_chart", {}),
    ("svg", svg, "influence_index_chart", {}),
    ("svg", svg, "intensity_chart", {}),
    ("svg", svg, "variogram_chart", {}),
]


class Tracer:
    """In-memory span store.  ``spans[i] = [name, parent, start, end]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rect_rel_se: list[float] = []
        self._patched: list[tuple] = []

    def wrap(self, name, fn, counters):
        tracer = self
        sig = None
        if counters:
            sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, parent, time.perf_counter(), 0.0]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                rec[3] = time.perf_counter()
            if name == "covariance.kv":
                tracer.counts["covariance.kv_elems"] += _broadcast_size(args)
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, count in counters.items():
                    tracer.counts[key] += count(bound, out)
            if name == "mvn.mvn_rect_prob" and out.prob > 0:
                tracer.rect_rel_se.append(out.se / out.prob)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target at every geocens attribute that refers to it."""
        for name, home, attr, counters in TARGETS:
            orig = _scipy_cho_solve if home is None else getattr(home, attr)
            wrapped = self.wrap(name, orig, counters)
            for mod in MODULES + (svg,):
                if getattr(mod, attr, None) is orig:
                    self._patched.append((mod.__dict__, attr, orig))
                    setattr(mod, attr, wrapped)
                # dispatch tables such as influence._DELTA_BUILDERS
                for table in [v for v in vars(mod).values() if isinstance(v, dict)]:
                    for key, value in list(table.items()):
                        if value is orig:
                            self._patched.append((table, key, orig))
                            table[key] = wrapped

    def uninstall(self):
        for table, key, orig in reversed(self._patched):
            table[key] = orig
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def _self_times(self) -> list[float]:
        dur = [s[3] - s[2] for s in self.spans]
        own = list(dur)
        for s, d in zip(self.spans, dur):
            if s[1] >= 0:
                own[s[1]] -= d
        return own

    def _has_ancestor(self, idx: int, name: str) -> bool:
        p = self.spans[idx][1]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][1]
        return False

    def layer_metrics(self, rounds: int, wall_s: float) -> dict[str, float]:
        """Per-round layer metrics; ``wall_s`` is the traced rounds' summed
        operation time."""
        own = self._self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for i, ((name, _, t0, t1), o) in enumerate(zip(self.spans, own)):
            calls[name] += 1
            self_s[name] += o
            if not self._has_ancestor(i, name):
                incl_s[name] += t1 - t0

        def under(child, ancestor, exclude=None):
            n, t = 0, 0.0
            for i, s in enumerate(self.spans):
                if s[0] == child and self._has_ancestor(i, ancestor):
                    if exclude and self._has_ancestor(i, exclude):
                        continue
                    n += 1
                    t += s[3] - s[2]
            return n, t

        m: dict[str, float] = {}
        for key in ("covariance.corr_matrix", "covariance.spd_cholesky", "linalg.cho_solve",
                    "mvn.tmvn_gibbs", "mvn.mvn_rect_prob", "model.loglik",
                    "model.conditional_given_obs", "saem.cm_step",
                    "predict.gaussian_ml_fit", "predict.krige"):
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = self_s[key]
        m["covariance.dsigma.self_s"] = self_s["covariance.dsigma"] + self_s["covariance.d2sigma"]
        for key in ("covariance.corr_pairs", "covariance.kv_elems", "covariance.cholesky_gflop",
                    "linalg.cho_solve.rhs_cols", "mvn.gibbs_coord_updates", "mvn.rect_points",
                    "mvn.rect_hit_cap", "saem.iterations", "cli.bytes_written"):
            m[key] = self.counts[key]
        m["mvn.rect_rel_se"] = statistics.median(self.rect_rel_se) if self.rect_rel_se else 0.0
        n_cm, _ = under("covariance.corr_matrix", "saem.cm_step")
        m["saem.cm_nfev_per_step"] = n_cm / calls["saem.cm_step"] if calls["saem.cm_step"] else 0.0
        _, gibbs_s = under("mvn.tmvn_gibbs", "saem.saem_fit", exclude="model.loglik")
        _, cond_s = under("model.conditional_given_obs", "saem.saem_fit", exclude="model.loglik")
        m["saem.estep_s"] = gibbs_s + cond_s
        _, m["saem.monitor_s"] = under("model.loglik", "saem.saem_fit")
        n_ml, _ = under("covariance.corr_matrix", "predict.gaussian_ml_fit")
        n_fit = calls["predict.gaussian_ml_fit"]
        m["predict.ml_nfev_per_fit"] = n_ml / n_fit if n_fit else 0.0
        m["predict.predict_seminaive.s"] = incl_s["predict.predict_seminaive"]
        m["influence.q_hessian.s"] = incl_s["influence.q_hessian"]
        m["influence.delta.s"] = incl_s["influence.delta"]
        m["influence.curvature_matrix.s"] = incl_s["influence.curvature_matrix"]
        m["cli.io_s"] = incl_s["cli.io"]
        m["svg.s"] = incl_s["svg"]

        layer_self = defaultdict(float)
        for name, t in self_s.items():
            layer_self[name.split(".")[0]] += t
        for layer in ("covariance", "linalg", "mvn", "model", "saem", "predict",
                      "influence", "cli", "svg"):
            m[f"layer.{layer}.self_s"] = layer_self[layer]
        m["proc.spans"] = len(self.spans)
        counted = {t[0] for t in TARGETS if t[3]} | {"covariance.kv"}
        n_counted = sum(1 for s in self.spans if s[0] in counted)
        plain_cost, counted_cost = span_costs()
        m["proc.span_cost_s"] = (len(self.spans) - n_counted) * plain_cost + n_counted * counted_cost
        top = sum(s[3] - s[2] for s in self.spans if s[1] < 0)
        m["trace.wall_coverage"] = top / wall_s if wall_s > 0 else 0.0
        fit_total = incl_s["saem.saem_fit"]
        m["trace.fit_child_share"] = (
            1.0 - self_s["saem.saem_fit"] / fit_total if fit_total > 0 else 0.0
        )
        out = {}
        for k, v in m.items():
            share = k.startswith("trace.") or k in ("mvn.rect_rel_se", "saem.cm_nfev_per_step",
                                                   "predict.ml_nfev_per_fit")
            out[k] = float(v) if share else float(v) / rounds
        return out


def span_costs(calls: int = 20000) -> tuple[float, float]:
    """Wrapper time of one span, without and with a counter, timed on a
    trivial function (a steadier overhead estimate than traced minus
    untraced wall time on a shared machine)."""
    def trivial(a, b=1):
        return a

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(0)
        return (time.perf_counter() - t0) / calls

    tracer = Tracer()
    bare = per_call(trivial)
    plain = per_call(tracer.wrap("plain", trivial, {}))
    counted = per_call(tracer.wrap("counted", trivial, {"n": lambda b, o: 1}))
    return plain - bare, counted - bare


def _broadcast_size(args) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in args]).size)


def unit_of(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.startswith("trace.") or key == "mvn.rect_rel_se":
        return "ratio"
    if key == "covariance.cholesky_gflop":
        return "GFLOP"
    if key == "cli.bytes_written":
        return "bytes"
    return "count"
