"""Benchmark of geocens: fitting, prediction, diagnostics and the CLI.

    python3 bench/run.py --workload study-matern --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --compare bench/results/A.json bench/results/B.json

A run sets up its inputs from ``--seed`` (several times, reporting the
median), then repeats whole rounds of the workload's operations until
``--seconds`` have passed, checking every output.  With ``--trace 1`` it
runs one untraced round and then traced rounds, and reports per-layer
metrics instead of end-to-end ones.  The last line of standard output is
one JSON object; the same result, with the environment, is written to
``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: on a shared 2-vCPU machine, OpenBLAS's own
# threads fight a neighbour process for the cores (a fit runs 12x slower).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "fit_s": "s", "influence_s": "s", "crossval_s": "s",
    "peak_rss_mb": "MB", "fit_json_bytes": "bytes", "rmspe_saem": "response_units",
}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _import_program():
    """Import geocens from this checkout's ``src`` and the benchmark modules."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import geocens

    if not os.path.abspath(geocens.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"geocens imported from {geocens.__file__}, not from {ROOT}/src")
    import reference
    import tracing
    import workloads

    return workloads, tracing, reference


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as handle:
            for line in handle:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
    }


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Runner:
    def __init__(self, workloads, sampler, name: str, seed: int, workdir: str):
        self.w = workloads
        self.sampler = sampler
        self.make_cases, self.round_fn = workloads.WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.rounds: list = []
        self.n_round = 0

    def _fresh_dir(self, label: str) -> str:
        d = os.path.join(self.workdir, label)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def setup(self) -> list:
        """Make the inputs and warm up on a small instance of the same
        workload (lazy imports, first-call costs), several times; returns
        the raw time and the span of each repeat."""
        timed = []
        for k in range(SETUP_REPEATS):
            def once():
                self.cases = self.make_cases(self.seed)
                warm = self.w.Round(lambda msg: None, self.sampler)
                self.round_fn(self.make_cases(self.seed, small=True), warm,
                              self._fresh_dir(f"warmup{k}"))
            timed.append(self.sampler.timed(once)[1:])
        return timed

    def round(self):
        self.n_round += 1
        rnd = self.w.Round(lambda msg: log(f"round {self.n_round}: {msg}"), self.sampler)
        self.round_fn(self.cases, rnd, self._fresh_dir(f"round{self.n_round}"))
        if self.rounds and rnd.signature != self.rounds[0].signature:
            rnd.wrong += 1
            log(f"round {self.n_round}: outputs differ from round 1 with the same seed")
        self.rounds.append(rnd)
        return rnd


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(rounds, setup_s: float) -> dict:
    times = lambda kind: [t for r in rounds for t in r.times(kind)]
    vals = lambda key: [v for r in rounds for v in r.values[key]]
    return {
        "setup_s": setup_s,
        "wall_s": _median([w for r in rounds for w in r.dataset_walls()]),
        "fit_s": _median(times("fit")),
        "influence_s": _median(times("influence")),
        "crossval_s": _median(times("crossval")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fit_json_bytes": _median(vals("fit_json_bytes")),
        "rmspe_saem": _median(vals("rmspe_saem")),
    }


def estimates_digest(rounds) -> str:
    """SHA-256 of the first round's outputs rounded to 10 significant
    digits (informational: a later change can show "same answer")."""
    def rounded(v):
        if isinstance(v, float):
            return f"{v:.10g}"
        if isinstance(v, (list, tuple)):
            return [rounded(x) for x in v]
        return v

    blob = json.dumps(rounded(rounds[0].signature) if rounds else None)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_workload(workloads, tracing, sampler, name, seed, seconds, trace, import_span) -> dict:
    """One workload.  Times are scaled to the reference speed when the
    sampler runs (untraced runs), raw otherwise."""
    workdir = os.path.join(BENCH_DIR, "_work", f"{name}-{os.getpid()}")
    runner = Runner(workloads, sampler, name, seed, workdir)
    n_samples = len(sampler.took)
    try:
        setups = runner.setup()
        units = dict(END_TO_END)
        if trace:
            cpu0 = _cpu_s()
            untraced = runner.round()
            cpu_untraced = _cpu_s() - cpu0
            tracer = tracing.Tracer()
            traced = []
            t0 = time.perf_counter()
            while not traced or time.perf_counter() - t0 < seconds:
                with tracer:
                    traced.append(runner.round())
            metrics = tracer.layer_metrics(len(traced), sum(r.raw_wall for r in traced))
            metrics["proc.cpu_s"] = cpu_untraced
            metrics["proc.tracing_overhead_s"] = (_median([r.raw_wall for r in traced])
                                                  - untraced.raw_wall)
            units = {k: tracing.unit_of(k) for k in metrics}
        else:
            t0 = time.perf_counter()
            while not runner.rounds or time.perf_counter() - t0 < seconds:
                runner.round()
            for rnd in runner.rounds:
                rnd.scale()
            # the import ran before the sampler started: the padded span
            # takes the speed measured right after it
            setup_s = (import_span[1] - import_span[0]) * sampler.factor(import_span) + \
                statistics.median(raw * sampler.factor(span) for raw, span in setups)
            metrics = end_to_end(runner.rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    rounds = runner.rounds
    wrong = sum(r.wrong for r in rounds)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(rounds),
        "correct": wrong == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.errors + r.wrong for r in rounds),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "estimates_sha256": estimates_digest(rounds),
        "raw_s": {
            "wall": [w for r in rounds for w in r.dataset_walls("raw")],
            **{kind: [t for r in rounds for t in r.times(kind, "raw")]
               for kind in ("fit", "influence", "crossval")},
        },
        "scaled_s": {
            "wall": [w for r in rounds for w in r.dataset_walls()],
            **{kind: [t for r in rounds for t in r.times(kind)]
               for kind in ("fit", "influence", "crossval")},
        },
        "reference_kernel_s": {
            "median": statistics.median(sampler.took[n_samples:]) if not trace else None,
            "samples": len(sampler.took) - n_samples},
    }


def compare(path_a: str, path_b: str):
    """Print B/A for every metric present in both result files."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    print(f"base A: {path_a} ({a['workload']}, seed {a['seed']}, trace {a['trace']})")
    print(f"     B: {path_b} ({b['workload']}, seed {b['seed']}, trace {b['trace']})")
    print(f"{'metric':36s} {'A':>14s} {'B':>14s} {'B/A':>8s}  unit")
    for key, ma in a["metrics"].items():
        if key not in b["metrics"]:
            continue
        va, vb = ma["value"], b["metrics"][key]["value"]
        ratio = f"{vb / va:8.3f}" if va else "     n/a"
        print(f"{key:36s} {va:14.6g} {vb:14.6g} {ratio}  {ma['unit']}")
    print(f"estimates digest {'same' if a['estimates_sha256'] == b['estimates_sha256'] else 'DIFFERENT'}")


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0

    workloads, tracing, reference = _import_program()
    import_span = (t_start, time.perf_counter())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            ap.error(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")

    env = environment()
    env["reference_s"] = reference.REFERENCE_S
    results = []
    sampler = reference.SpeedSampler()
    if not args.trace:
        sampler.start()
    try:
        for name in names:
            results.append(run_workload(workloads, tracing, sampler, name, args.seed,
                                        args.seconds, args.trace, import_span))
    finally:
        sampler.stop()
    for res in results:
        name = res["workload"]
        os.makedirs(RESULTS_DIR, exist_ok=True)
        out = os.path.join(RESULTS_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w") as handle:
            json.dump({**res, "environment": env}, handle, indent=1)
        for key, m in res["metrics"].items():
            log(f"{name:14s} {key:36s} {m['value']:14.6g} {m['unit']}")
        log(f"{name}: {res['attempted']} attempted, {res['failed']} failed, "
            f"{res['rounds']} rounds; result in {os.path.relpath(out, ROOT)}")
    if len(results) == 1:
        line = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
