"""Fig. 12 — the calibrated threshold test (Sec. VII-C4).

The paper's methodology: collect 50 training waveforms per class, pick
the threshold Q in the gap (they chose 0.5), then test on 100 fresh
waveforms per class and show every ZigBee waveform below Q and every
emulated waveform above it.  We run the identical protocol; our
calibrated Q is smaller in absolute terms (cleaner receiver) but the
classification is just as clean.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from repro.defense.detector import calibrate_threshold
from repro.experiments.common import prepare_authentic, prepare_emulated
from repro.experiments.defense_common import (
    _distance_or_none,
    statistic_trial,
)
from repro.experiments.sweep import (
    PointSpec,
    ScenarioSupport,
    StreamSpec,
    SweepPlan,
    SweepReduction,
    SweepSpec,
    resolve_channel_factory,
    resolve_detector,
    resolve_receiver,
)


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    snrs = list(config["snrs_db"])
    budgets = {
        "train": config["train_per_class"],
        "test": config["test_per_class"],
    }
    points = []
    for i, snr in enumerate(snrs):
        streams = []
        for j, (split, label) in enumerate((
            ("train", "zigbee"), ("train", "emulated"),
            ("test", "zigbee"), ("test", "emulated"),
        )):
            streams.append(StreamSpec(
                key=f"snr{snr:g}.{split}.{label}", rng_slot=4 * i + j,
                budget=budgets[split], trial=statistic_trial,
                static_args=(label, "quadrature", False, snr),
                kind="mean", extract=_distance_or_none,
            ))
        points.append(PointSpec(
            key=f"snr{snr:g}", streams=tuple(streams),
            meta={"snr_db": snr},
        ))
    return SweepPlan(points=tuple(points), rng_slots=4 * len(snrs))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    return {
        "zigbee": prepare_authentic(),
        "emulated": prepare_emulated(rng=base),
        "receiver": resolve_receiver(config, "defense"),
        "channel_factory": resolve_channel_factory(config),
    }


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    return [
        "snr_db", "zigbee_max_de2", "emulated_min_de2",
        "false_alarm_rate", "miss_rate",
    ]


def _build_rows(reduction: SweepReduction) -> None:
    snrs = [point.meta["snr_db"] for point in reduction.plan.points]

    def point_values(snr: float, split: str, label: str) -> List[float]:
        payload = reduction.payloads[f"snr{snr:g}.{split}.{label}"]
        return [float(value) for value in payload["values"]]

    train_zigbee: List[float] = []
    train_emulated: List[float] = []
    test_sets = {}
    for snr in snrs:
        train_zigbee.extend(point_values(snr, "train", "zigbee"))
        train_emulated.extend(point_values(snr, "train", "emulated"))
        test_sets[snr] = (
            point_values(snr, "test", "zigbee"),
            point_values(snr, "test", "emulated"),
        )

    threshold = calibrate_threshold(train_zigbee, train_emulated)

    result = reduction.result
    all_test_z: List[float] = []
    all_test_e: List[float] = []
    for snr, (zigbee_values, emulated_values) in test_sets.items():
        false_alarms = sum(v >= threshold for v in zigbee_values)
        misses = sum(v < threshold for v in emulated_values)
        result.add_row(
            snr_db=snr,
            zigbee_max_de2=float(np.max(zigbee_values)) if zigbee_values else float("nan"),
            emulated_min_de2=float(np.min(emulated_values)) if emulated_values else float("nan"),
            false_alarm_rate=false_alarms / len(zigbee_values) if zigbee_values else float("nan"),
            miss_rate=misses / len(emulated_values) if emulated_values else float("nan"),
        )
        all_test_z.extend(zigbee_values)
        all_test_e.extend(emulated_values)

    result.series["test_zigbee_de2"] = np.asarray(all_test_z)
    result.series["test_emulated_de2"] = np.asarray(all_test_e)
    result.series["threshold"] = np.asarray([threshold])
    result.notes.append(
        f"calibrated threshold Q = {threshold:.4f} (paper: 0.5 on its "
        "receiver); zero classification errors expected on both sides"
    )


SPEC = SweepSpec(
    experiment_id="fig12",
    title="Fig. 12: defense strategy performance with calibrated threshold",
    defaults={
        "snrs_db": (7, 12, 17),
        "train_per_class": 25,
        "test_per_class": 25,
    },
    plan=_plan,
    context=_context,
    columns=_columns,
    checkpoint_unit="stream",
    build_rows=_build_rows,
    detector=resolve_detector,
    scenario=ScenarioSupport(channel="snr", receiver=True),
)


run = SPEC.run
