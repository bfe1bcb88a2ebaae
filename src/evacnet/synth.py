"""Deterministic synthetic evacuation scenarios in the detector CSV schema.

Flow is a diurnal base profile times an evacuation surge multiplier times
an incident capacity factor, plus seeded noise. Speed follows a linear
speed-flow curve from free-flow speed down to the floor at capacity, so
the travel-time graph actually reflects congestion. Outage windows emit
missing flow/speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict
from datetime import datetime, timedelta

import numpy as np

from .dataio import HIGHWAYS, MAX_SPAN_HOURS
from .fieldtypes import is_a

FREE_FLOW_MPH = 70.0
SPEED_FLOOR_MPH = 5.0
LANE_CAPACITY_VPH = 2000.0


@dataclass
class Scenario:
    name: str
    seed: int
    horizon_hours: int = 240
    start: str = "2024-10-01T00:00:00"
    # (highway, n_detectors, milepost_spacing_miles)
    corridors: list = field(default_factory=lambda: [("I75", 6, 4.0)])
    lanes: int = 3
    base_flow: float = 900.0
    diurnal_amplitude: float = 0.5
    noise_std: float = 0.0
    # evacuation timeline
    order_hour: int = 120
    landfall_hour: int = 216
    surge_peak_multiplier: float = 3.0
    surge_spatial_decay_miles: float = 60.0
    landfall_milepost: float = -30.0  # position along the corridor axis
    population_total: float = 2.5e6
    # incident process
    incident_rate_per_hour: float = 0.0
    incident_mean_duration_hours: float = 2.0
    incident_capacity_drop: float = 0.5
    # outage process: random rate plus forced (detector_idx, start, length)
    outage_rate_per_hour: float = 0.0
    outage_mean_duration_hours: float = 4.0
    forced_outages: list = field(default_factory=list)
    # S3 machinery: congestion waves travelling along the corridor
    congestion_waves: bool = False
    wave_period_hours: int = 6
    wave_speed_det_per_hour: float = 1.0
    wave_strength: float = 0.9

    def validate(self):
        # 60 hours for the feature history; the data path's timeline cap
        if not 60 <= self.horizon_hours <= MAX_SPAN_HOURS:
            raise ValueError(f"horizon_hours must be in [60, "
                             f"{MAX_SPAN_HOURS}]")
        if self.surge_peak_multiplier <= 0 or self.base_flow <= 0:
            raise ValueError("multipliers and base flow must be positive")
        if not 0 <= self.order_hour < self.landfall_hour <= self.horizon_hours:
            raise ValueError("need order_hour < landfall_hour <= horizon")
        try:
            offset = datetime.fromisoformat(self.start).tzinfo
        except ValueError:
            raise ValueError(f"start must be an ISO timestamp, got "
                             f"{self.start!r}") from None
        if offset is not None:  # load_csv rejects offset timestamps
            raise ValueError(f"start must be a local clock time without a "
                             f"UTC offset, got {self.start!r}")
        for highway, n, spacing in self.corridors:
            if highway not in HIGHWAYS or n < 1 or spacing <= 0:
                raise ValueError(f"corridors: {(highway, n, spacing)} needs a "
                                 f"highway in {HIGHWAYS}, n >= 1, spacing > 0")
        highways = [highway for highway, _, _ in self.corridors]
        if len(set(highways)) < len(highways):  # detector ids repeat
            raise ValueError(f"corridors: each highway may appear once, got "
                             f"{highways}")
        n_det = sum(n for _, n, _ in self.corridors)
        for i, start, length in self.forced_outages:
            if not (0 <= i < n_det and start >= 0 and length >= 1):
                raise ValueError(f"forced_outages: {(i, start, length)} needs "
                                 f"0 <= detector < {n_det}, start >= 0, "
                                 f"length >= 1")


def builtin_scenarios():
    """Three frozen scenarios: smoke test, dropout-heavy, fusion-signal."""
    s1 = Scenario(name="S1", seed=101, incident_rate_per_hour=0.01,
                  noise_std=20.0)
    s2 = Scenario(name="S2", seed=202,
                  corridors=[("I75", 5, 4.0), ("I4", 3, 5.0)],
                  noise_std=20.0, outage_rate_per_hour=0.004,
                  outage_mean_duration_hours=5.0,
                  # guaranteed outage straddling the hour-130 window boundary
                  forced_outages=[(1, 127, 7), (6, 200, 5)])
    s3 = Scenario(name="S3", seed=303, congestion_waves=True,
                  noise_std=15.0, surge_peak_multiplier=3.5)
    return {"S1": s1, "S2": s2, "S3": s3}


def _diurnal(hour_of_day, amplitude):
    # single evening peak around 17:00
    return 1.0 + amplitude * math.sin((hour_of_day - 11.0) / 24.0 * 2 * math.pi)


@dataclass
class _Detector:
    detector_id: str
    highway: str
    milepost: float
    lanes: int
    lat: float
    lon: float
    dist_landfall: float
    dist_evac_zone: float


def _layout(scenario):
    dets = []
    for c_idx, (highway, n, spacing) in enumerate(scenario.corridors):
        milepost = 0.0
        for k in range(n):
            if k:
                # uneven spacing keeps chain-edge distances distinct, so
                # edge orderings between the two modalities can differ
                milepost += spacing * (1.0 + 0.25 * (k % 3))
            dets.append(_Detector(
                detector_id=f"{highway}_{k:03d}", highway=highway,
                milepost=milepost, lanes=scenario.lanes,
                lat=28.0 + 0.05 * k + c_idx, lon=-82.0 - 0.03 * k,
                dist_landfall=abs(milepost - scenario.landfall_milepost),
                dist_evac_zone=max(2.0, 40.0 - milepost)))
    return dets


def generate(scenario, out_dir):
    """Write meta.csv, records.csv and a scenario manifest into out_dir.

    Identical scenario (including seed) produces byte-identical files.
    Returns a notes dict with ground-truth process facts.
    """
    scenario.validate()
    rng = np.random.default_rng(scenario.seed)
    dets = _layout(scenario)
    n_det = len(dets)
    hours = scenario.horizon_hours
    t0 = datetime.fromisoformat(scenario.start)

    # incident process per detector: list of (start, duration_h, lanes, veh)
    incidents = [[] for _ in range(n_det)]
    for i in range(n_det):
        for h in range(hours):
            if rng.random() < scenario.incident_rate_per_hour:
                dur = max(1, int(rng.exponential(
                    scenario.incident_mean_duration_hours)))
                incidents[i].append((h, dur, int(rng.integers(1, 3)),
                                     int(rng.integers(1, 5))))

    # outage mask
    out = np.zeros((n_det, hours), dtype=bool)
    for i in range(n_det):
        for h in range(hours):
            if rng.random() < scenario.outage_rate_per_hour:
                dur = max(1, int(rng.exponential(
                    scenario.outage_mean_duration_hours)))
                out[i, h:h + dur] = True
    for (i, start, length) in scenario.forced_outages:
        out[i, start:start + length] = True

    noise = rng.normal(0.0, scenario.noise_std, size=(n_det, hours))

    flow = np.zeros((n_det, hours))
    speed = np.zeros((n_det, hours))
    capacity = np.array([d.lanes * LANE_CAPACITY_VPH for d in dets])
    surge_span = scenario.landfall_hour - scenario.order_hour
    for h in range(hours):
        hour_of_day = (t0 + timedelta(hours=h)).hour
        base = scenario.base_flow * _diurnal(hour_of_day,
                                             scenario.diurnal_amplitude)
        for i, d in enumerate(dets):
            mult = 1.0
            if scenario.order_hour <= h < scenario.landfall_hour:
                phase = (h - scenario.order_hour) / surge_span
                shape = math.sin(phase * math.pi)  # ramp up then down
                spatial = math.exp(-d.dist_landfall
                                   / scenario.surge_spatial_decay_miles)
                mult += (scenario.surge_peak_multiplier - 1.0) * shape * spatial
            inc_factor = 1.0
            for (start, dur, _, _) in incidents[i]:
                if start <= h < start + dur:
                    inc_factor = min(inc_factor,
                                     1.0 - scenario.incident_capacity_drop)
            f = base * mult * inc_factor + noise[i, h]
            # moving congestion wave: periodically slows one stretch of
            # the corridor without a matching flow change, so travel-time
            # edge weights reorder relative to distance weights
            wave_drop = 0.0
            if scenario.congestion_waves:
                center = (h * scenario.wave_speed_det_per_hour) % n_det
                dist = min(abs(i - center), n_det - abs(i - center))
                if dist < 1.5:
                    wave_drop = scenario.wave_strength
            flow[i, h] = max(0.0, f)
            # demand over incident-reduced capacity drives the speed curve
            demand = base * mult + noise[i, h]
            v_ratio = min(1.0, max(0.0, demand)
                          / (capacity[i] * inc_factor))
            v = FREE_FLOW_MPH - (FREE_FLOW_MPH - SPEED_FLOOR_MPH) * v_ratio
            if wave_drop:
                v = SPEED_FLOOR_MPH + (v - SPEED_FLOOR_MPH) * (1 - wave_drop)
            speed[i, h] = max(SPEED_FLOOR_MPH, min(FREE_FLOW_MPH, v))

    # evacuation timeline columns
    cum_pop = np.zeros(hours)
    for h in range(hours):
        if h >= scenario.order_hour:
            frac = min(1.0, (h - scenario.order_hour) / max(1, surge_span))
            cum_pop[h] = scenario.population_total * frac
    order_day = (t0 + timedelta(hours=scenario.order_hour)).date()
    landfall_day = (t0 + timedelta(hours=scenario.landfall_hour - 1)).date()

    out_dir.mkdir(parents=True, exist_ok=True)
    meta_path = out_dir / "meta.csv"
    records_path = out_dir / "records.csv"

    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write("detector_id,highway,milepost,lanes,lat,lon\n")
        for d in dets:
            fh.write(f"{d.detector_id},{d.highway},{d.milepost!r},"
                     f"{d.lanes},{d.lat!r},{d.lon!r}\n")

    def fmt(x):
        return repr(round(float(x), 6))

    with open(records_path, "w", encoding="utf-8") as fh:
        fh.write("detector_id,timestamp_iso8601,flow,speed,incident_flag,"
                 "n_incidents,max_lanes_closed,vehicles_involved,"
                 "avg_incident_dur_min,max_incident_dur_min,avg_elapsed_min,"
                 "max_elapsed_min,cum_pop_under_orders,dist_evac_zone_mi,"
                 "dist_landfall_mi,hrs_before_landfall,hrs_after_order,"
                 "evac_day,landfall_day\n")
        for i, d in enumerate(dets):
            for h in range(hours):
                ts = t0 + timedelta(hours=h)
                active_inc = [(start, dur, lanes_c, veh)
                              for (start, dur, lanes_c, veh) in incidents[i]
                              if start <= h < start + dur]
                if active_inc:
                    durs = [dur * 60.0 for (_, dur, _, _) in active_inc]
                    elapsed = [(h - start) * 60.0
                               for (start, _, _, _) in active_inc]
                    inc_cols = [1, len(active_inc),
                                max(lc for (_, _, lc, _) in active_inc),
                                sum(v for (_, _, _, v) in active_inc),
                                fmt(np.mean(durs)), fmt(max(durs)),
                                fmt(np.mean(elapsed)), fmt(max(elapsed))]
                else:
                    inc_cols = [0, 0, 0, 0, fmt(0), fmt(0), fmt(0), fmt(0)]
                flow_s = "" if out[i, h] else fmt(flow[i, h])
                speed_s = "" if out[i, h] else fmt(speed[i, h])
                evac_day_flag = int(order_day <= ts.date() < landfall_day)
                landfall_flag = int(ts.date() == landfall_day)
                row = [d.detector_id, ts.isoformat(), flow_s, speed_s,
                       *map(str, inc_cols), fmt(cum_pop[h]),
                       fmt(d.dist_evac_zone), fmt(d.dist_landfall),
                       str(scenario.landfall_hour - h),
                       str(max(0, h - scenario.order_hour)),
                       str(evac_day_flag), str(landfall_flag)]
                fh.write(",".join(row) + "\n")

    manifest = {"scenario": asdict(scenario)}
    with open(out_dir / "scenario.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    notes = {
        "n_detectors": n_det,
        "hours": hours,
        "surge_mean_flow": float(
            flow[:, scenario.order_hour:scenario.landfall_hour].mean()),
        "nonevac_mean_flow": float(flow[:, :scenario.order_hour].mean()),
        "n_outage_hours": int(out.sum()),
        "fusion_signal_fraction": fusion_signal_fraction(
            dets, speed, scenario) if scenario.congestion_waves else 0.0,
    }
    return meta_path, records_path, notes


def fusion_signal_fraction(dets, speed, scenario):
    """Fraction of surge-period hours where the travel-time edge ordering
    differs from the distance edge ordering."""
    from . import graphs
    differing = 0
    total = 0
    for h in range(scenario.order_hour, scenario.landfall_hour):
        chain = graphs.build_edges(dets)
        raw_d = [d for (_, _, d) in chain]
        raw_tt = [graphs.travel_time(dd, speed[i, h], speed[j, h])[0]
                  for (i, j, dd) in chain]
        total += 1
        if list(np.argsort(raw_d)) != list(np.argsort(raw_tt)):
            differing += 1
    return differing / max(1, total)


# element annotations of the list-of-tuples fields
_ROW_TYPES = {"corridors": ("str", "int", "float"),
              "forced_outages": ("int", "int", "int")}


def load_scenario_file(path):
    """A Scenario from a JSON object (or one under "scenario"); every
    field's type is checked against its annotation, so a wrong type is a
    ValueError naming the field rather than a crash in `generate`."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("a scenario file holds one JSON object")
    body = payload.get("scenario", payload)
    if not isinstance(body, dict):
        raise ValueError("scenario must be a JSON object")
    for f in fields(Scenario):
        if f.name not in body:
            continue
        value, row = body[f.name], _ROW_TYPES.get(f.name)
        if row is None:
            if not is_a(value, f.type):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        elif not (isinstance(value, list) and all(
                isinstance(r, list) and len(r) == len(row)
                and all(map(is_a, r, row)) for r in value)):
            raise ValueError(f"{f.name} must be a list of "
                             f"[{', '.join(row)}] rows, got {value!r}")
    body["corridors"] = [tuple(c) for c in body.get("corridors", [])] or None
    if body["corridors"] is None:
        del body["corridors"]
    body["forced_outages"] = [tuple(o)
                              for o in body.get("forced_outages", [])]
    return Scenario(**body)
