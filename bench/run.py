"""Benchmark of the bikecast command line.

Run from the root of a checkout:

    python3 bench/run.py --workload decide-hourly --seed 7 --seconds 40 --trace 0

The benchmark writes a synthetic corpus for the seed (once, outside the
timed region), then runs the workload's commands one process at a time, the
way a user types them, and repeats the whole sequence until ``--seconds``
have passed. Before the first repetition and after each one it times a
reference process that runs none of the program's code; ``wall_rel`` is the
median sequence time over the median reference time. It checks every run's
artifacts, scores forecasts and decisions against the realized counts and an
exact UDF reference, and prints as its last line one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of one extra
traced run (``--trace 1``). The line before it records the inputs, the
machine and the digest of the artifacts.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")

SETUP_RUNS = 3
# A fresh interpreter that imports the program's dependencies and none of its
# code. A shared host's speed drifts by up to a third over minutes, so
# wall_rel divides the command sequence's time by this yardstick, timed in
# the same run.
REFERENCE_ARGV = [sys.executable, "-c", "import numpy, scipy.linalg, scipy.special, yaml"]
# reference runs before the first repetition and after each one
REFERENCE_RUNS = 3
# every command of a run must end before this many seconds from the start
RUN_DEADLINE_S = 170
# value of an accuracy metric on a workload that does not exercise it
NOT_EXERCISED = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the corpus and of the run config")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the command sequence until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs program processes one at a time under a shared deadline."""

    def __init__(self, deadline: float, log_path: str):
        self.deadline = deadline
        self.log_path = log_path
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list[str]) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak resident MB of one process."""
        with open(self.log_path, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def make_corpus(seed: int) -> tuple[dict[str, str], dict[str, str]]:
    """Corpus paths and their sha256, written once per seed and generator source."""
    from bikecast import synthetic

    with open(synthetic.__file__, "rb") as fh:
        source = hashlib.sha256(fh.read()).hexdigest()[:12]
    directory = os.path.join(WORK, "corpus", f"{seed}-{source}")
    names = {"trips": "trips.csv", "weather": "weather.csv", "stations": "stations.csv"}
    paths = {k: os.path.join(directory, v) for k, v in names.items()}
    if not all(os.path.exists(p) for p in paths.values()):
        partial = directory + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        synthetic.write_corpus(partial, seed=seed)
        shutil.rmtree(directory, ignore_errors=True)
        os.rename(partial, directory)
    digests = {}
    for key, path in paths.items():
        with open(path, "rb") as fh:
            digests[names[key]] = hashlib.sha256(fh.read()).hexdigest()
    return paths, digests


def machine() -> dict:
    import ctypes

    import numpy
    import scipy

    record = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "openblas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                  "libscipy_openblas*.so"))
    for lib in libs:
        try:
            record["openblas_threads"] = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return record


def write_config(path: str, corpus: dict, out_dir: str, seed: int, workload) -> None:
    """Paths are relative to the checkout: the config hash stamped on every
    artifact then does not depend on where the checkout lives."""
    import yaml

    def rel(p: str) -> str:
        return os.path.relpath(p, ROOT)

    payload = {"trips_path": rel(corpus["trips"]), "weather_path": rel(corpus["weather"]),
               "stations_path": rel(corpus["stations"]), "out_dir": rel(out_dir), "seed": seed,
               "start_date": "2018-01-01", "end_date": "2018-12-31", **workload.config}
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh, sort_keys=True)


def run_sequence(runner: Runner, workload, config_path: str,
                 spans_dir: str | None = None) -> dict:
    """Run the workload's commands in order; stop at the first failure."""
    codes, rss = [], []
    start = time.perf_counter()
    for i, command in enumerate(workload.commands):
        cli = [command, "--config", config_path]
        if spans_dir is None:
            argv = [sys.executable, "-m", "bikecast.cli", *cli]
        else:
            argv = [sys.executable, TRACE, os.path.join(spans_dir, f"{i}.json"), *cli]
        code, _wall, peak = runner.run(argv)
        codes.append(code)
        rss.append(peak)
        if code != 0:
            break
    return {"wall_s": time.perf_counter() - start, "peak_rss_mb": max(rss), "codes": codes}


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "bikecast", "cli.py")):
        print("bench: src/bikecast not found; run from the root of a bikecast checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import CLASSICAL, NEURAL, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    import score
    import tracer
    from bikecast.config import load_config

    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{workload.name}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(time.monotonic() + RUN_DEADLINE_S, os.path.join(run_dir, "commands.log"))
    corpus, corpus_sha = make_corpus(args.seed)

    failures: list[str] = []
    attempted = 0

    def check(name: str, ok: bool) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(name)

    setup = []
    for _ in range(SETUP_RUNS):
        code, wall, _peak = runner.run([sys.executable, "-m", "bikecast.cli", "--help"])
        check("setup", code == 0)
        setup.append(wall)

    # every run of a workload and seed writes to the same out_dir, which the
    # config hash in each artifact covers, so their artifacts must be identical
    config_path = os.path.join(run_dir, "run.yaml")
    out_dir = os.path.join(run_dir, "out")
    scored_dir = os.path.join(run_dir, "scored")
    write_config(config_path, corpus, out_dir, args.seed, workload)
    config = load_config(config_path)

    def run_clean(spans_dir=None) -> dict:
        shutil.rmtree(out_dir, ignore_errors=True)
        rep = run_sequence(runner, workload, config_path, spans_dir)
        for command, code in zip(workload.commands, rep["codes"]):
            check(f"{'traced_' if spans_dir else ''}exit:{command}", code == 0)
        rep["ok"] = len(rep["codes"]) == len(workload.commands) and not any(rep["codes"])
        rep["digest"] = score.artifact_digest(out_dir) if rep["ok"] else None
        return rep

    reference: list[float] = []

    def pace() -> None:
        for _ in range(REFERENCE_RUNS):
            code, wall, _peak = runner.run(REFERENCE_ARGV)
            check("reference", code == 0)
            reference.append(wall)

    reps = []
    timed_start = time.perf_counter()
    pace()
    while not reps or time.perf_counter() - timed_start < args.seconds:
        reps.append(run_clean())
        pace()
        if not reps[-1]["ok"]:
            break
        if len(reps) == 1:
            os.rename(out_dir, scored_dir)
    ran_clean = reps[-1]["ok"]
    digest = reps[0]["digest"]

    rmse, accuracy = {}, {}
    if ran_clean:
        check("deterministic", all(r["digest"] == digest for r in reps))
        try:
            for name, ok in score.check_outputs(workload, config, scored_dir).items():
                check(name, ok)
            if not failures:
                rmse = score.rmse_by_model(workload, scored_dir)
                if workload.decides:
                    accuracy = score.udf_accuracy(workload, config, scored_dir)
                    check("udf_abs_err_max", accuracy["abs_err_max"] <= score.UDF_ABS_ERR_TOL)
        except Exception:  # a malformed artifact fails the run, it must not hide it
            traceback.print_exc()
            check("scoring", False)

    layers = {}
    if args.trace and ran_clean:
        spans_dir = os.path.join(run_dir, "spans")
        os.makedirs(spans_dir)
        traced = run_clean(spans_dir)
        if traced["ok"]:
            check("traced_artifacts_identical", traced["digest"] == digest)
            processes = []
            for i in range(len(workload.commands)):
                with open(os.path.join(spans_dir, f"{i}.json")) as fh:
                    processes.append(json.load(fh))
            declared = [m["name"] for m in spec["per_layer"]]
            layers = tracer.layer_metrics(processes, declared)
            for span in workload.expected_spans:
                check(f"span:{span}", layers[f"{span}.calls"] > 0)
            layers["wall_s"] = statistics.median(r["wall_s"] for r in reps)
            layers["reference_s"] = statistics.median(reference)
            layers["trace_overhead_share"] = traced["wall_s"] / layers["wall_s"] - 1.0
            for name in NEURAL:
                layers[f"neural.rmse.{name}"] = rmse.get(name, 0.0)
            layers["inventory.udf_abs_err_max"] = accuracy.get("abs_err_max", 0.0)
            layers["inventory.udf_abs_err_mean"] = accuracy.get("abs_err_mean", 0.0)
            layers["inventory.udf_regret_sum"] = accuracy.get("regret_sum", 0.0)

    e2e = {
        "setup_s": statistics.median(setup),
        "wall_rel": (statistics.median(r["wall_s"] for r in reps)
                     / statistics.median(reference)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_share": 1.0 - len(failures) / attempted,
        "udf_optimal_share": accuracy.get("optimal_share", NOT_EXERCISED),
    }
    for name in CLASSICAL:
        e2e[f"rmse.{name}"] = rmse.get(name, None if name in workload.models
                                       else NOT_EXERCISED)
    neural_rmse = [rmse[name] for name in NEURAL if name in rmse]
    e2e["rmse.neural"] = (statistics.mean(neural_rmse) if neural_rmse else
                          None if set(NEURAL) & set(workload.models) else NOT_EXERCISED)
    values = layers if args.trace else e2e
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing and not failures:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "reps": len(reps), "rep_wall_s": [r["wall_s"] for r in reps],
        "reference_s": reference,
        "artifacts_sha256": digest,
        "corpus_sha256": corpus_sha, "machine": machine(),
        "accuracy": accuracy, "failed_checks": failures,
    }))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    if failures:
        print(f"bench: failed {failures}; logs kept in {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
