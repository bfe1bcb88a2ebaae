"""Deterministic synthetic evacuation scenarios in the detector CSV schema.

Flow is a diurnal base profile times an evacuation surge multiplier times
an incident capacity factor, plus seeded noise. Speed falls linearly from
free-flow speed to the floor at capacity, so the travel-time graph reflects
congestion; outages leave flow and speed empty. `generate` draws the random
processes in a fixed order, then computes each column as one array over
(detector, hour), from one table of the incidents active at each.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields, asdict
from datetime import datetime, timedelta
from itertools import accumulate

import numpy as np

from . import graphs
from .dataio import (HIGHWAYS, MAX_DETECTOR_HOURS, MAX_FLOW, MAX_MAGNITUDE,
                     MAX_MILEPOST, MAX_SPAN_HOURS, META_COLUMNS,
                     RECORD_COLUMNS)
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
        # the wave's centre is h * speed; inf % n_det is nan: no wave
        reach = self.wave_speed_det_per_hour * (self.horizon_hours - 1)
        if not math.isfinite(reach):
            raise ValueError(f"wave_speed_det_per_hour * (horizon_hours - 1)"
                             f" must be finite, got {reach!r}")
        for name in ("base_flow", "surge_peak_multiplier",
                     "surge_spatial_decay_miles"):
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
        if not 0 <= self.incident_capacity_drop < 1:
            raise ValueError("incident_capacity_drop must be in [0, 1)")
        # the share of the speed above the floor that a wave takes away:
        # below 0 a wave speeds traffic up (-1e307 overflows the speed),
        # and past 1 it asks for a speed under the floor
        if not 0 <= self.wave_strength <= 1:
            raise ValueError(f"wave_strength must be in [0, 1], got "
                             f"{self.wave_strength!r}")
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


_Detector = namedtuple("_Detector", "detector_id highway milepost lanes lat "
                       "lon dist_landfall dist_evac_zone")


def _mileposts(n, spacing):
    """A corridor's n mileposts, from 0. Uneven spacing keeps chain-edge
    distances distinct, so edge orderings between the two modalities can
    differ."""
    return list(accumulate((spacing * (1.0 + 0.25 * (k % 3))
                            for k in range(1, n)), initial=0.0))


def _layout(scenario):
    return [_Detector(
        detector_id=f"{highway}_{k:03d}", highway=highway,
        milepost=milepost, lanes=scenario.lanes,
        lat=28.0 + 0.05 * k + c_idx, lon=-82.0 - 0.03 * k,
        dist_landfall=abs(milepost - scenario.landfall_milepost),
        dist_evac_zone=max(2.0, 40.0 - milepost))
        for c_idx, (highway, n, spacing) in enumerate(scenario.corridors)
        for k, milepost in enumerate(_mileposts(n, spacing))]


def _arrivals(rng, n_det, hours, rate, mean_hours, marks=tuple):
    """Events that start at each detector-hour with probability `rate`, in
    draw order: (detector, start, hours drawn about `mean_hours`, *marks())."""
    return [(i, h, max(1, int(rng.exponential(mean_hours))), *marks())
            for i in range(n_det) for h in range(hours)
            if rng.random() < rate]


def _incident_table(incidents, n_det, hours):
    """INCIDENT_COLUMNS per (detector, hour) over the incidents active there:
    the flag, their count, the most lanes one closes, their vehicles, and the
    mean and largest of their durations and elapsed times in minutes, 0 where
    none is. The minutes are whole, so their sums and means are exact."""
    sums = np.zeros((4, n_det, hours))  # count, vehicles, minutes, elapsed
    maxima = np.zeros((3, n_det, hours))  # lanes, minutes, elapsed
    hour = np.arange(hours)
    for i, start, dur, lanes, veh in incidents:
        active = slice(start, start + dur)  # start <= h < start + dur
        elapsed = (hour[active] - start) * 60.0
        for column, value in zip(sums, (1, veh, dur * 60.0, elapsed)):
            column[i, active] += value
        for column, value in zip(maxima, (lanes, dur * 60.0, elapsed)):
            column[i, active] = np.maximum(column[i, active], value)
    per = np.maximum(sums[0], 1)
    return (sums[0] > 0, sums[0], maxima[0], sums[1], sums[2] / per,
            maxima[1], sums[3] / per, maxima[2])


def _fmt(x):
    return repr(round(float(x), 6))


def _incident_cells(row):
    """A row of the incident table as CSV fields; the first four count."""
    return ",".join([*("%d" % x for x in row[:4]), *map(_fmt, row[4:])])


def generate(scenario, out_dir):
    """Write meta.csv, records.csv and a scenario manifest into out_dir.

    Identical scenario (including seed) produces byte-identical files.
    Returns a notes dict with ground-truth process facts.
    """
    scenario.validate()
    rng = np.random.default_rng(scenario.seed)
    dets = _layout(scenario)
    n_det, hours = len(dets), scenario.horizon_hours
    order, landfall = scenario.order_hour, scenario.landfall_hour
    t0 = datetime.fromisoformat(scenario.start)

    incidents = _arrivals(rng, n_det, hours, scenario.incident_rate_per_hour,
                          scenario.incident_mean_duration_hours,
                          lambda: (int(rng.integers(1, 3)),
                                   int(rng.integers(1, 5))))
    outages = _arrivals(rng, n_det, hours, scenario.outage_rate_per_hour,
                        scenario.outage_mean_duration_hours)
    out = np.zeros((n_det, hours), dtype=bool)
    for i, start, dur in [*outages, *scenario.forced_outages]:
        out[i, start:start + dur] = True
    noise = rng.normal(0.0, scenario.noise_std, size=(n_det, hours))
    table = _incident_table(incidents, n_det, hours)

    # per hour: the diurnal base flow and the surge's ramp up then down;
    # per detector: the surge's decay with distance
    surge_span = landfall - order
    clock = [t0 + timedelta(hours=h) for h in range(hours)]
    base = np.array([scenario.base_flow * _diurnal(
        ts.hour, scenario.diurnal_amplitude) for ts in clock])
    surge = np.array([(scenario.surge_peak_multiplier - 1.0) * math.sin(
        (h - order) / surge_span * math.pi) if order <= h < landfall
        else 0.0 for h in range(hours)])
    spatial = np.array([math.exp(-d.dist_landfall
                                 / scenario.surge_spatial_decay_miles)
                        for d in dets])

    load = base * (1.0 + surge * spatial[:, None])
    inc_factor = np.where(table[0], 1.0 - scenario.incident_capacity_drop,
                          1.0)
    flow = np.maximum(0.0, load * inc_factor + noise)
    # demand over incident-reduced capacity drives the speed curve
    v_ratio = np.minimum(1.0, np.maximum(0.0, load + noise)
                         / (scenario.lanes * LANE_CAPACITY_VPH * inc_factor))
    speed = FREE_FLOW_MPH - (FREE_FLOW_MPH - SPEED_FLOOR_MPH) * v_ratio
    # a congestion wave slows a moving stretch of corridor, flow unchanged,
    # so travel-time edge weights reorder relative to distance weights; at
    # strength 0 speed stays as is (FLOOR + (v - FLOOR) * 1 need not be v)
    if scenario.congestion_waves and scenario.wave_strength:
        center = np.array([(h * scenario.wave_speed_det_per_hour) % n_det
                           for h in range(hours)])
        gap = np.abs(np.arange(n_det)[:, None] - center)
        speed = np.where(np.minimum(gap, n_det - gap) < 1.5,
                         SPEED_FLOOR_MPH + (speed - SPEED_FLOOR_MPH)
                         * (1 - scenario.wave_strength), speed)
    speed = np.maximum(SPEED_FLOOR_MPH, np.minimum(FREE_FLOW_MPH, speed))

    # per hour: the timestamp and the timeline, split by a detector's place
    order_day = (t0 + timedelta(hours=order)).date()
    landfall_day = (t0 + timedelta(hours=landfall - 1)).date()
    hourly = [(ts.isoformat(), _fmt(scenario.population_total * min(
        1.0, (h - order) / surge_span) if h >= order else 0.0),
        f"{landfall - h},{max(0, h - order)},"
        f"{int(order_day <= ts.date() < landfall_day)},"
        f"{int(ts.date() == landfall_day)}") for h, ts in enumerate(clock)]

    out_dir.mkdir(parents=True, exist_ok=True)
    meta_path, records_path = out_dir / "meta.csv", out_dir / "records.csv"
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(META_COLUMNS) + "\n")
        fh.writelines(f"{d.detector_id},{d.highway},{d.milepost!r},"
                      f"{d.lanes},{d.lat!r},{d.lon!r}\n" for d in dets)

    quiet = _incident_cells((0,) * 8)
    with open(records_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for i, d in enumerate(dets):
            place = f"{_fmt(d.dist_evac_zone)},{_fmt(d.dist_landfall)}"
            incident_rows = zip(*(column[i].tolist() for column in table))
            for (stamp, cum, tail), missing, f, v, inc in zip(
                    hourly, out[i].tolist(), flow[i].tolist(),
                    speed[i].tolist(), incident_rows):
                seen = "," if missing else f"{_fmt(f)},{_fmt(v)}"
                cells = _incident_cells(inc) if inc[0] else quiet
                fh.write(f"{d.detector_id},{stamp},{seen},{cells},{cum},"
                         f"{place},{tail}\n")

    (out_dir / "scenario.json").write_text(json.dumps(
        {"scenario": asdict(scenario)}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    notes = {
        "n_detectors": n_det, "hours": hours,
        "surge_mean_flow": float(flow[:, order:landfall].mean()),
        # null when the order comes at hour 0
        "nonevac_mean_flow": float(flow[:, :order].mean()) if order else None,
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
