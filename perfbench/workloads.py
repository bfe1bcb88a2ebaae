"""The benchmark's workloads. README.md beside this file says why each
one exists and which layers it is meant to stress."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from evacnet import synth


def _builtin(name):
    def scenario(seed):
        return dataclasses.replace(synth.builtin_scenarios()[name],
                                   seed=seed)
    return scenario


def _corridors100(seed):
    return synth.Scenario(
        name="corridors100", seed=seed, horizon_hours=336,
        corridors=[("I75", 25, 3.0), ("I4", 25, 3.0), ("I95", 25, 3.0),
                   ("I10", 25, 3.0)],
        order_hour=168, landfall_hour=302, noise_std=20.0,
        incident_rate_per_hour=0.01, outage_rate_per_hour=0.003)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int], synth.Scenario]  # workload seed -> scenario
    variant: str
    epochs: int  # per training; fixed, so each training is deterministic
    eval_repeats: int  # evaluate calls after each training
    setup_repeats: int  # timed set-ups before training starts


WORKLOADS = {w.name: w for w in (
    Workload("s1_rl_dmf", _builtin("S1"), "rl_dmf", epochs=3,
             eval_repeats=3, setup_repeats=7),
    Workload("s2_dmf_no_rl", _builtin("S2"), "dmf_no_rl", epochs=3,
             eval_repeats=3, setup_repeats=7),
    Workload("corridors100_rl_dmf", _corridors100, "rl_dmf", epochs=1,
             eval_repeats=2, setup_repeats=2),
)}
