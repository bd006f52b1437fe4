"""The benchmark's workloads: a run config and the commands a user types.

Each workload stresses other layers, so a change to one layer has a workload
that exercises it and one that bypasses it:

* decide-hourly runs one ``pipeline``; the UDF solver does nearly all the
  work and no net is trained.
* neural-fit runs ``ingest``, ``train`` and ``forecast`` as separate
  processes over the paper's six models; the neural and autodiff layers
  dominate, the solver is never called, and every artifact crosses a file.

Each command sequence takes 15 to 18 s on two cores, so one 40-second run
of the benchmark repeats it two or three times. No workload sets
``substeps_per_interval``, ``jobs`` or ``eval_is_samples``, which are due to
be deleted.
"""

from __future__ import annotations

from dataclasses import dataclass

from bikecast.config import DEFAULT_MODELS

CLASSICAL = ("ha", "ma", "lr")
NEURAL = ("prnn", "vprnn", "movprnn")


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    config: dict
    decides: bool = False
    # spans that must record at least one call in the traced run
    expected_spans: tuple[str, ...] = ()

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(self.config.get("models", DEFAULT_MODELS))


_INGEST_TRAIN_FORECAST = (
    "experiments.stage_ingest", "experiments.stage_train", "experiments.stage_forecast",
    "experiments.load_ingested", "ingest.parse_trips", "ingest.parse_weather",
    "ingest.to_event_streams", "ingest.aggregate", "ingest.build_covariates",
    "ingest.demand_to_csv", "ingest.demand_from_csv", "classical.fit_ha",
)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="decide-hourly",
            commands=("pipeline",),
            config={"stations": ["102"], "models": ["ha"], "interval_minutes": 60,
                    "bias_delta_step": 2.5},
            decides=True,
            expected_spans=_INGEST_TRAIN_FORECAST + (
                "experiments.stage_optimize", "experiments.stage_evaluate",
                "experiments.stage_bias", "experiments.load_forecasts",
                "experiments.bias_study", "inventory.udf_curve", "inventory.oracle_decision",
                "evaluate.benchmark", "evaluate.replay_cost"),
        ),
        Workload(
            name="neural-fit",
            commands=("ingest", "train", "forecast"),
            config={"stations": ["101"], "hidden_width": 64, "max_epochs": 4, "patience": 2},
            expected_spans=_INGEST_TRAIN_FORECAST + (
                "classical.fit_ma", "classical.fit_lr", "experiments.load_models", "neural.train",
                "neural.predict_rates", "neural.save_checkpoint", "neural.load_checkpoint",
                "autodiff.grad"),
        ),
    )
}
