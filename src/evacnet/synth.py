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

from . import graphs
from .dataio import (HIGHWAYS, MAX_DETECTOR_HOURS, MAX_FLOW, MAX_MAGNITUDE,
                     MAX_MILEPOST, MAX_SPAN_HOURS)
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
    wave_speed_det_per_hour: float = 1.0
    wave_strength: float = 0.9

    def validate(self):
        # nan and inf pass the comparisons below, or reach no bound at all
        # where a feature is off, and write a corpus without meaning
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # 60 hours for the feature history; the data path's timeline cap
        if not 60 <= self.horizon_hours <= MAX_SPAN_HOURS:
            raise ValueError(f"horizon_hours must be in [60, "
                             f"{MAX_SPAN_HOURS}]")
        for name in ("base_flow", "surge_peak_multiplier"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 <= self.order_hour < self.landfall_hour <= self.horizon_hours:
            raise ValueError("need order_hour < landfall_hour <= horizon")
        # values the generator divides by, or that would write a corpus
        # the loader rejects (lanes in meta.csv, a negative population)
        # (numpy's draws take no negative scale, -0.0 included)
        if math.copysign(1.0, self.noise_std) < 0:
            raise ValueError("noise_std must be >= 0")
        # durations are drawn about these means; a mean past the longest
        # timeline writes incident minutes above MAX_MAGNITUDE, or
        # overflows the conversion of a drawn duration to hours
        for name in ("incident_mean_duration_hours",
                     "outage_mean_duration_hours"):
            value = getattr(self, name)
            if math.copysign(1.0, value) < 0 or value > MAX_SPAN_HOURS:
                raise ValueError(f"{name} must be in [0, {MAX_SPAN_HOURS}]")
        # the largest flow written: the diurnal peak times the surge peak,
        # plus 10 noise standard deviations, which one normal draw exceeds
        # with probability 7.6e-24
        flow = (self.base_flow * (1 + abs(self.diurnal_amplitude))
                * max(1.0, self.surge_peak_multiplier) + 10 * self.noise_std)
        if flow > MAX_FLOW:
            raise ValueError(f"base_flow * (1 + |diurnal_amplitude|) * "
                             f"max(1, surge_peak_multiplier) + 10 * "
                             f"noise_std = {flow:.4g} exceeds the largest "
                             f"flow a record may carry, {MAX_FLOW:.0f} veh/h")
        # the largest cum_pop_under_orders written
        if not 0 <= self.population_total <= MAX_MAGNITUDE:
            raise ValueError(f"population_total must be in [0, "
                             f"{MAX_MAGNITUDE:.0e}]")
        if self.surge_spatial_decay_miles <= 0:
            raise ValueError("surge_spatial_decay_miles must be > 0")
        if not 0 <= self.incident_capacity_drop < 1:
            raise ValueError("incident_capacity_drop must be in [0, 1)")
        if not 1 <= self.lanes <= MAX_MAGNITUDE:
            raise ValueError(f"lanes must be in [1, {MAX_MAGNITUDE:.0e}]")
        try:
            t0 = datetime.fromisoformat(self.start)
        except ValueError:
            raise ValueError(f"start must be an ISO timestamp, got "
                             f"{self.start!r}") from None
        if t0.tzinfo is not None:  # load_csv rejects offset timestamps
            raise ValueError(f"start must be a local clock time without a "
                             f"UTC offset, got {self.start!r}")
        if t0 > datetime.max - timedelta(hours=self.horizon_hours):
            raise ValueError(f"start {self.start!r} plus horizon_hours "
                             f"{self.horizon_hours} passes {datetime.max}")
        if not self.corridors:
            raise ValueError("corridors must hold at least one corridor")
        for highway, n, spacing in self.corridors:
            if highway not in HIGHWAYS or n < 1 or not spacing > 0:  # nan
                raise ValueError(f"corridors: {(highway, n, spacing)} needs a "
                                 f"highway in {HIGHWAYS}, n >= 1, spacing > 0")
        highways = [highway for highway, _, _ in self.corridors]
        if len(set(highways)) < len(highways):  # detector ids repeat
            raise ValueError(f"corridors: each highway may appear once, got "
                             f"{highways}")
        n_det = sum(n for _, n, _ in self.corridors)
        if n_det * self.horizon_hours > MAX_DETECTOR_HOURS:
            raise ValueError(f"corridors: {n_det} detectors over "
                             f"{self.horizon_hours} hours make "
                             f"{n_det * self.horizon_hours} detector-hours, "
                             f"more than {MAX_DETECTOR_HOURS}")
        # laid out only now that the detector count is bounded
        for highway, n, spacing in self.corridors:
            last = _mileposts(n, spacing)[-1]
            if last > MAX_MILEPOST:
                raise ValueError(f"corridors: {highway}'s last milepost "
                                 f"{last!r} exceeds {MAX_MILEPOST:.0f}")
            # dist_landfall_mi, largest at one end of the corridor
            far = max(abs(self.landfall_milepost),
                      abs(last - self.landfall_milepost))
            if far > MAX_MAGNITUDE:
                raise ValueError(f"landfall_milepost "
                                 f"{self.landfall_milepost!r} is {far:.4g} "
                                 f"miles from a detector of {highway}, more "
                                 f"than {MAX_MAGNITUDE:.0e}")
        for i, start, length in self.forced_outages:
            # generate writes no hour past the horizon: a longer outage
            # would be cut short there
            if not (0 <= i < n_det and 0 <= start and length >= 1
                    and start + length <= self.horizon_hours):
                raise ValueError(f"forced_outages: {(i, start, length)} needs "
                                 f"0 <= detector < {n_det}, 0 <= start, "
                                 f"length >= 1 and start + length <= "
                                 f"horizon_hours {self.horizon_hours}")


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


def _mileposts(n, spacing):
    """A corridor's n mileposts, from 0. Uneven spacing keeps chain-edge
    distances distinct, so edge orderings between the two modalities can
    differ."""
    mileposts, milepost = [], 0.0
    for k in range(n):
        if k:
            milepost += spacing * (1.0 + 0.25 * (k % 3))
        mileposts.append(milepost)
    return mileposts


def _layout(scenario):
    dets = []
    for c_idx, (highway, n, spacing) in enumerate(scenario.corridors):
        for k, milepost in enumerate(_mileposts(n, spacing)):
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
        # null when the order comes at hour 0
        "nonevac_mean_flow": (float(flow[:, :scenario.order_hour].mean())
                              if scenario.order_hour else None),
        "n_outage_hours": int(out.sum()),
        "fusion_signal_fraction": fusion_signal_fraction(
            dets, speed, scenario) if scenario.congestion_waves else 0.0,
    }
    return meta_path, records_path, notes


def fusion_signal_fraction(dets, speed, scenario):
    """Fraction of surge-period hours where the travel-time edge ordering
    differs from the distance edge ordering."""
    highway = np.array([d.highway for d in dets])
    milepost = np.array([d.milepost for d in dets])
    hours = range(scenario.order_hour, scenario.landfall_hour)
    differing = 0
    for h in hours:
        _, _, miles, tt = graphs.chain_edges(highway, milepost, speed[:, h])
        differing += not np.array_equal(np.argsort(miles), np.argsort(tt))
    return differing / max(1, len(hours))


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
    for name in _ROW_TYPES:
        if name in body:
            body[name] = [tuple(row) for row in body[name]]
    # written by earlier versions, whose generate never read it
    period = body.pop("wave_period_hours", 0)
    if not is_a(period, "int"):
        raise ValueError(f"wave_period_hours must be int, got {period!r}")
    return Scenario(**body)
