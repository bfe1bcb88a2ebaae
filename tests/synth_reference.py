"""Reference oracle for `synth.generate`: the scalar version, one
detector-hour at a time, that the array version over (detector, hour)
replaced, kept so that the array code can be checked to write the same
files byte for byte and return the same notes. Only the imports differ."""

import json
import math
from dataclasses import asdict
from datetime import datetime, timedelta

import numpy as np

from evacnet.synth import (FREE_FLOW_MPH, LANE_CAPACITY_VPH, SPEED_FLOOR_MPH,
                           _diurnal, _layout, fusion_signal_fraction)


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
