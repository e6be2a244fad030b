"""T11 (extension) — metric-driven autoscaling under a load ramp.

One table on the virtual clock: a two-tier workload whose Poisson
arrival rate ramps from comfortable (0.5x the calibrated sustainable
rate) through saturation (1.5x) to a long overload stage (3.0x),
served by

* a **pinned** fleet held at the floor replica count, and
* an **autoscaled** fleet starting at the same floor, growing toward a
  ceiling from windowed TTFT-p95 / backlog signals (and draining back
  on idle),

both running the *same* windowed online dispatch (a pinned autoscaler,
``min_replicas == max_replicas``), so elasticity is the only variable.
The legacy dispatch-all fleet path is deliberately not the baseline: it
schedules every arrival into one clairvoyant continuous-batching
segment, which no online controller can match — and which an autoscaler
cannot use, because scale decisions must interleave with arrivals.

The acceptance bar: the ramp saturates the pinned fleet — premium
(tier-0) TTFT p95 breaches the SLO and the burn-rate monitor fires —
while the autoscaled fleet holds premium TTFT p95 within the same SLO,
scales up at least once, burns strictly less error budget, and loses no
request silently.

Run standalone as ``python benchmarks/bench_t11_autoscale.py --smoke
[--out F]`` for a seconds-scale CI smoke; ``--out`` writes a
deterministic report (summary + SLO report + span dump) that CI runs
twice and byte-compares.
"""

import json

from repro.models import small_config
from repro.obs import SLOObjective, slo_report, span_coverage
from repro.serve import (
    AutoscalerConfig,
    FleetConfig,
    ServeConfig,
    run_fleet_serving,
    run_serving,
)

CFG = small_config(vocab_size=256)
WORLD = 2
REQUESTS = 72
MAX_NEW = 16

#: Ramp stages: (multiple of the sustainable arrival rate, requests).
#: The overload stage carries two thirds of the workload so saturation,
#: not the ramp-up transient, dominates the pinned fleet's tail.
RAMP_STAGES = ((0.5, 12), (1.5, 12), (3.0, 48))
#: Premium TTFT objective as a multiple of the *paced* uncontended p95
#: (an all-at-t=0 run inflates TTFT with its admission burst). The
#: pinned floor fleet saturates to ~50x uncontended under this ramp, so
#: 32x is a real objective it genuinely breaches with margin while an
#: elastic fleet holds it.
SLO_HEADROOM = 32.0
#: Calibration arrival rate for the uncontended p95 (x sustainable).
CALIBRATION_RATE = 0.25

FLOOR = 1
CEILING = 4

_US = 1e6  # virtual seconds -> microseconds for readable cells


def _serve_cfg(**overrides) -> ServeConfig:
    base = dict(
        model=CFG, ep_size=WORLD, num_requests=REQUESTS, prompt_len=8,
        prompt_len_max=16, max_new_tokens=MAX_NEW, max_batch_size=4,
        num_tiers=2, seed=0, observe=True,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _ramp(sustainable: float) -> tuple[tuple[float, float], ...]:
    """Piecewise-constant schedule: each stage sized for its request count."""
    segments = []
    t = 0.0
    for mult, count in RAMP_STAGES:
        rate = mult * sustainable
        segments.append((t, rate))
        t += count / rate
    return tuple(segments)


def _premium_ttft_p95(fleet) -> float:
    ttfts = sorted(
        r["ttft"] for r in fleet.requests
        if r["tier"] == 0 and r["state"] == "done" and r["ttft"] is not None
    )
    if not ttfts:
        return 0.0
    return ttfts[min(len(ttfts) - 1, int(0.95 * len(ttfts)))]


def _accounted(fleet, n=REQUESTS) -> bool:
    recs = fleet.requests
    return (
        sorted(r["rid"] for r in recs) == list(range(n))
        and all(r["state"] in ("done", "evicted", "shed") for r in recs)
        and all(r["state"] == "done" or r["reason"] for r in recs)
    )


def _fleet_cfg(scfg, slo_s, span_s, floor, ceiling) -> FleetConfig:
    """Windowed-dispatch fleet; ``floor == ceiling`` pins it (no scaling)."""
    scale = AutoscalerConfig(
        min_replicas=floor, max_replicas=ceiling, ttft_slo_s=slo_s,
        signal_window_s=span_s / 10, cooldown_s=span_s / 100,
        spawn_delay_s=span_s / 500, dispatch_window_s=span_s / 10,
        queue_high=2.0, queue_low=0.25, scale_up_frac=0.5,
        scale_down_frac=0.05, min_samples=2,
    )
    return FleetConfig(
        serve=scfg, replicas=floor, max_rounds=2048, autoscale=scale,
        slos=(SLOObjective(name="premium-ttft", threshold_s=slo_s, tier=0),),
        # Burn windows derive from the horizon (h/10 down to h/720); five
        # ramp spans puts the "notice" window at ~half the ramp, wide
        # enough to accumulate min_samples during the overload stage.
        slo_horizon_s=5.0 * span_s,
    )


def _slo_stats(fleet) -> dict:
    fired = bad = 0
    for mon in fleet.slo:
        s = mon.summary()
        fired += s["alerts_fired"]
        bad += s["bad"]
    return {"fired": fired, "bad": bad}


def test_t11_autoscale(benchmark, report):
    def measure():
        # Calibrate in two runs: sustainable request rate from a batch
        # run, then uncontended TTFT from a paced run well under it.
        healthy = run_serving(_serve_cfg(observe=False, num_requests=48))
        sustainable = healthy.throughput / MAX_NEW
        paced = run_serving(_serve_cfg(
            observe=False, num_requests=48,
            arrival_rate=CALIBRATION_RATE * sustainable,
        ))
        base_p95 = paced.ttft.percentile(95)
        slo_s = SLO_HEADROOM * base_p95
        ramp = _ramp(sustainable)
        ramp_span = ramp[-1][0] + RAMP_STAGES[-1][1] / ramp[-1][1]

        rows = []
        fleets = {}
        for label, ceiling in (("pinned", FLOOR), ("autoscaled", CEILING)):
            fleet = run_fleet_serving(_fleet_cfg(
                _serve_cfg(arrival_ramp=ramp), slo_s, ramp_span,
                FLOOR, ceiling,
            ))
            fleets[label] = fleet
            p95 = _premium_ttft_p95(fleet)
            slo = _slo_stats(fleet)
            rows.append({
                "fleet": label,
                "replicas": f"{FLOOR}..{ceiling}",
                "completed": fleet.completed,
                "scale_ups": fleet.scale_ups,
                "scale_downs": fleet.scale_downs,
                "replicas_final": fleet.replicas_final,
                "premium_ttft_p95_us": p95 * _US,
                "slo_us": slo_s * _US,
                "breach": p95 > slo_s,
                "slo_bad": slo["bad"],
                "slo_alerts": slo["fired"],
                "makespan_us": fleet.simulated_time * _US,
                "accounted": _accounted(fleet),
            })
        return rows, fleets

    rows, fleets = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "t11_autoscale",
        f"T11: pinned vs autoscaled fleet under an arrival ramp "
        f"({REQUESTS} reqs, stages {RAMP_STAGES} x sustainable, "
        f"{WORLD} EP ranks per replica)",
        rows,
    )

    pinned, scaled = rows[0], rows[1]
    # Zero silent loss on both fleets.
    assert all(r["accounted"] for r in rows)
    # The ramp saturates the pinned floor fleet...
    assert pinned["breach"], pinned
    # ...and the autoscaler absorbs it within the same SLO.
    assert not scaled["breach"], scaled
    assert scaled["scale_ups"] >= 1
    # The burn-rate monitor pages on the saturated fleet, and the
    # elastic fleet burns strictly less error budget.
    assert pinned["slo_alerts"] >= 1, pinned
    assert scaled["slo_bad"] < pinned["slo_bad"]

    # Every admitted request carries exactly one root span whose on-path
    # children (+ explicit gaps) account for its recorded latency.
    for fleet in fleets.values():
        spans = fleet.context.spans
        roots = [s for s in spans.roots() if s.kind == "request"]
        assert len(roots) == len(fleet.requests)
        by_rid = {r["rid"]: r for r in fleet.requests}
        for root in roots:
            cov = span_coverage(spans, root)
            rec = by_rid[root.attrs["rid"]]
            if rec["state"] == "done":
                assert abs(cov["root_seconds"] - rec["latency"]) < 1e-9


def _smoke_report(fleet) -> str:
    """Deterministic text+JSON report (CI byte-compares two runs)."""
    lines = ["# T11 autoscale smoke report", ""]
    for key, value in sorted(fleet.metrics_record().items()):
        if isinstance(value, float):
            lines.append(f"{key}: {value:.9g}")
        else:
            lines.append(f"{key}: {value}")
    lines.append("")
    lines.append(slo_report(fleet.slo))
    lines.append("## span dump")
    lines.append("")
    lines.append(json.dumps(
        {"spans": fleet.context.spans.records()}, sort_keys=True
    ))
    return "\n".join(lines) + "\n"


def _smoke(out: str | None) -> int:
    """Seconds-scale end-to-end check for CI (returns a process rc)."""
    small = dict(num_requests=12, max_new_tokens=8, prompt_len=4,
                 prompt_len_max=8)
    healthy = run_serving(_serve_cfg(observe=False, **small))
    sustainable = healthy.throughput / 8
    base_p95 = healthy.ttft.percentile(95)
    ramp = ((0.0, 0.5 * sustainable), (4 / sustainable, 3.0 * sustainable))
    span = ramp[-1][0] + 8 / ramp[-1][1]
    fleet = run_fleet_serving(_fleet_cfg(
        _serve_cfg(arrival_ramp=ramp, **small),
        3.0 * base_p95, span, FLOOR, CEILING,
    ))
    spans = fleet.context.spans
    roots = [s for s in spans.roots() if s.kind == "request"]
    coverage_ok = True
    for root in roots:
        try:
            span_coverage(spans, root)
        except Exception:
            coverage_ok = False
    ok = (
        _accounted(fleet, n=12)
        and fleet.scale_ups >= 1
        and len(roots) == 12
        and coverage_ok
    )
    print(
        f"t11 smoke: {fleet.completed}/12 completed, "
        f"+{fleet.scale_ups}/-{fleet.scale_downs} scale events "
        f"(final {fleet.replicas_final} replicas), "
        f"{len(spans)} spans / {len(roots)} roots, "
        f"coverage={'ok' if coverage_ok else 'BROKEN'}, "
        f"accounted={'yes' if _accounted(fleet, n=12) else 'NO'}"
    )
    if out:
        with open(out, "w") as fh:
            fh.write(_smoke_report(fleet))
        print(f"t11 smoke: report -> {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse
    import sys

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="fast end-to-end check (CI)")
    ap.add_argument("--out", default=None,
                    help="write the smoke report here")
    ns = ap.parse_args()
    if ns.smoke:
        sys.exit(_smoke(ns.out))
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from conftest import OUT_DIR, format_table

    class _Bench:
        @staticmethod
        def pedantic(fn, **kw):
            return fn()

    def _report(name, title, rows):
        text = format_table(title, rows)
        print(text)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text)

    test_t11_autoscale(_Bench(), _report)
