"""Span tracer for the per-layer run.

``python bench/tracer.py SPANS_JSON CLI_ARGS...`` runs one ``bikecast``
command in this process through ``cli.main``, after wrapping the module-level
public functions named in ``TRACED``. Each call records a span: name, start,
end, parent and a few attributes. The spans stay in memory and are written
to SPANS_JSON when the command ends. The exit code is the command's.

A wrapper replaces the function under every name that refers to it, in every
``bikecast`` module and in ``cli._COMMANDS``, so a call counts whichever
module it is looked up from.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "experiments": ("run_pipeline", "stage_ingest", "stage_train", "stage_forecast",
                    "stage_optimize", "stage_evaluate", "stage_bias", "load_ingested",
                    "load_models", "load_forecasts", "bias_study"),
    "inventory": ("udf_curve", "oracle_decision"),
    "evaluate": ("benchmark", "replay_cost"),
    "ingest": ("parse_trips", "parse_weather", "to_event_streams", "aggregate",
               "build_covariates", "demand_to_csv", "demand_from_csv"),
    "classical": ("fit_ha", "fit_lr", "fit_ma"),
    "neural": ("train", "predict_rates", "save_checkpoint", "load_checkpoint"),
    "autodiff": ("grad",),
}


def _udf_attrs(args, kwargs, result):
    rates, capacity = args[0], args[1]
    penalties = args[2] if len(args) > 2 else kwargs.get("penalties")
    digest = hashlib.sha256()
    digest.update(rates.pickup_rates.tobytes())
    digest.update(rates.return_rates.tobytes())
    digest.update(repr((rates.interval_minutes, capacity, penalties)).encode())
    return {"capacity": capacity, "interval": rates.interval_minutes,
            "key": digest.hexdigest()}


def _train_attrs(args, kwargs, result):
    return {"kind": args[0], "width": args[2].hidden_width,
            "epochs": len(result.train_history)}


def _rows_attrs(args, kwargs, result):
    return {"rows": len(result)}


def _bytes_attrs(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


ATTRS = {
    "inventory.udf_curve": _udf_attrs,
    "neural.train": _train_attrs,
    "ingest.parse_trips": _rows_attrs,
    "ingest.demand_to_csv": _bytes_attrs,
}


class Tracer:
    """Keeps one span per call of every wrapped function, in call order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        import bikecast.cli

        modules = [m for n, m in list(sys.modules.items())
                   if n == "bikecast" or n.startswith("bikecast.")]
        for short, names in TRACED.items():
            module = sys.modules[f"bikecast.{short}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                for key, value in bikecast.cli._COMMANDS.items():
                    if value is original:
                        bikecast.cli._COMMANDS[key] = wrapper


# per-layer metrics whose names carry a parameter; absent ones read 0
PARAMETRIZED = ("inventory.udf_curve.ms_p50.", "neural.train.s_per_epoch.")
STAGES = {"experiments.stage_optimize": "optimize", "experiments.stage_evaluate": "evaluate",
          "experiments.stage_bias": "bias"}


def _calling_stage(spans: list[dict], span: dict) -> str | None:
    while span["parent"] is not None:
        span = spans[span["parent"]]
        if span["name"] in STAGES:
            return STAGES[span["name"]]
    return None


def layer_metrics(processes: list[list[dict]], declared: list[str]) -> dict[str, float]:
    """Per-layer metrics from the spans of each command process of one run.

    Every traced function gets ``.calls``, ``.s`` (total seconds), ``.self_s``
    (seconds not covered by its child spans) and ``.ms_p50``; a few layers get
    the extra counts named in the benchmark's per-layer list.
    """
    durations: dict[str, list[float]] = {f"{m}.{f}": [] for m, fs in TRACED.items() for f in fs}
    child_s: Counter = Counter()
    udf_by_stage: Counter = Counter()
    udf_ms: dict[str, list[float]] = defaultdict(list)
    udf_keys: set[str] = set()
    udf_repeats = 0
    epochs: Counter = Counter()
    epoch_s: Counter = Counter()
    trip_rows = demand_bytes = 0
    for spans in processes:
        for span in spans:
            name, dur = span["name"], span["end"] - span["start"]
            durations[name].append(dur)
            if span["parent"] is not None:
                child_s[spans[span["parent"]]["name"]] += dur
            if name == "inventory.udf_curve" and "key" in span:
                udf_by_stage[_calling_stage(spans, span)] += 1
                udf_ms[f"c{span['capacity']}.i{span['interval']}"].append(dur * 1e3)
                udf_repeats += span["key"] in udf_keys
                udf_keys.add(span["key"])
            elif name == "neural.train" and "epochs" in span:
                family = f"{span['kind']}.h{span['width']}"
                epochs[family] += span["epochs"]
                epoch_s[family] += dur
            trip_rows += span.get("rows", 0)
            demand_bytes += span.get("bytes", 0)

    m: dict[str, float] = {}
    for name, ds in durations.items():
        m[f"{name}.calls"] = len(ds)
        m[f"{name}.s"] = sum(ds)
        m[f"{name}.self_s"] = sum(ds) - child_s[name]
        m[f"{name}.ms_p50"] = statistics.median(ds) * 1e3 if ds else 0.0
    n_udf = len(durations["inventory.udf_curve"])
    for stage in STAGES.values():
        m[f"inventory.udf_curve.calls.{stage}"] = udf_by_stage[stage]
    m["inventory.udf_curve.repeat_share"] = udf_repeats / n_udf if n_udf else 0.0
    for key, ms in udf_ms.items():
        m[f"inventory.udf_curve.ms_p50.{key}"] = statistics.median(ms)
    for family, n in epochs.items():
        m[f"neural.train.s_per_epoch.{family}"] = epoch_s[family] / n
    m["neural.train.epochs"] = sum(epochs.values())
    parse_s = m["ingest.parse_trips.s"]
    m["ingest.parse_trips.s_per_100k_rows"] = parse_s / trip_rows * 1e5 if trip_rows else 0.0
    m["ingest.demand_to_csv.bytes"] = demand_bytes
    for name in declared:
        if name.startswith(PARAMETRIZED):
            m.setdefault(name, 0.0)
    return m


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import bikecast.cli

    tracer = Tracer()
    tracer.install()
    try:
        return bikecast.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
