#!/usr/bin/env python3
"""Validate a bench JSON document, dispatching on its "schema" field.

Supported schemas:
  * madpipe-bench-planner-v1 (bench_planner): structural checks and, with
    --reference, that every shared workload achieved the same period and
    allocation fingerprint as the committed baseline (the fast path must
    be a pure speedup, never a result change).
  * madpipe-bench-serve-v1 (bench_serve): every equivalence record must be
    bit-identical to direct planning, coalescing must collapse to a single
    planner run, and the cache-hit speedup must stay above the 100x floor;
    --reference additionally pins the equivalence periods/allocations to
    the committed baseline.
  * madpipe-bench-net-v1 (bench_net): the TCP front-end document — wire
    equivalence must be bit-identical to batch-mode serve, latency
    percentiles ordered and sane, overload accounting exact (served +
    rejected = frames, shed under an over-budget burst), and the hit
    throughput floor enforced on hosts with >= 8 hardware threads (the
    document records hardware_threads).
  * madpipe-bench-fleet-v1 (bench_fleet): the fleet-simulator document —
    exact jobs-in == jobs-out accounting per policy, utilization and
    queueing percentiles sane, the affinity policy's cache hit-rate
    strictly above FIFO's, bit-identical determinism across reruns, and
    the calendar-queue events/s floor enforced on hosts with >= 8
    hardware threads.
  * madpipe-explain-v1 (madpipe explain --json): utilizations in [0, 1]
    with bubble = 1 - utilization, headroom = limit - peak exactly, the
    §3 decomposition terms summing to the peak within relative 1e-6,
    curves time-sorted and topping out at the peak, and the critical
    resource consistent with the utilization table; --reference pins the
    period and the per-GPU peaks bit-identically.

Field-by-field documentation of all documents lives in
docs/BENCH_SCHEMAS.md. Stdlib only; exits non-zero with a message on the
first violation.
"""

import argparse
import json
import math
import sys

PLANNER_SCHEMA = "madpipe-bench-planner-v1"
FLEET_SCHEMA = "madpipe-bench-fleet-v1"
SERVE_SCHEMA = "madpipe-bench-serve-v1"
NET_SCHEMA = "madpipe-bench-net-v1"
EXPLAIN_SCHEMA = "madpipe-explain-v1"

# ISSUE acceptance floor: a cache hit must be at least this much faster than
# a cold plan of the same request.
SERVE_MIN_HIT_SPEEDUP = 100.0

WORKLOAD_FIELDS = {
    "name": str,
    "repeats": int,
    "wall_seconds": (int, float),
    "per_solve_seconds": (int, float),
    "feasible": bool,
    "period": (int, float),
    "phase1_period": (int, float),
    "allocation": str,
    "dp_states": int,
}

# Present only in documents produced after the memo-rehash counters or the
# per-phase speculation split (phase2_*); the committed
# seed predates them, so they are validated when present but never
# required.
OPTIONAL_STATS_FIELDS = {
    "memo_rehashes": int,
    "memo_rehashes_avoided": int,
    "phase2_speculative_probes": int,
    "phase2_speculative_hits": int,
    "phase2_budget_hits": int,
}

STATS_FIELDS = {
    "dp_probes": int,
    "dp_states": int,
    "dp_state_visits": int,
    "memo_probes": int,
    "memo_child_lookups": int,
    "memo_hits": int,
    "memo_max_load_factor": (int, float),
    "transition_lookups": int,
    "transition_hits": int,
    "state_budget_hits": int,
    "phase1_probes": int,
    "phase2_probes": int,
    "speculative_probes": int,
    "speculative_hits": int,
    "phase1_wall_seconds": (int, float),
    "phase2_wall_seconds": (int, float),
}


def fail(message):
    print(f"check_bench_schema: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, fields, where):
    for key, expected in fields.items():
        if key not in obj:
            fail(f"{where}: missing key '{key}'")
        value = obj[key]
        # bool is an int subclass in Python; don't let it satisfy int fields.
        if expected is int and isinstance(value, bool):
            fail(f"{where}: key '{key}' is a bool, expected int")
        if not isinstance(value, expected):
            fail(f"{where}: key '{key}' has type {type(value).__name__}")


# Perf floors only bind on hosts with at least this many hardware threads:
# a 1-core CI runner cannot demonstrate sustained throughput, but
# it also must not fail for that. Every gated floor in this file goes
# through enforce_hardware_gated_floor so the gating rule is written once.
FLOOR_MIN_HARDWARE_THREADS = 8


def enforce_hardware_gated_floor(value, floor, hardware, where, what,
                                 smoke=False, unit=""):
    """Fail when `value` is below `floor` — but only when the host can be
    held to it: smoke runs and hosts with fewer than
    FLOOR_MIN_HARDWARE_THREADS hardware threads are exempt. Shared by the
    net throughput and fleet engine checkers."""
    if smoke or hardware < FLOOR_MIN_HARDWARE_THREADS:
        return
    if value < floor:
        fail(f"{where}: {what} {value:g}{unit} below the {floor:g}{unit} "
             f"floor (hardware_threads={hardware})")


LLM_SCALE_FIELDS = {
    "hardware_threads": int,
    "network": str,
    "layers": int,
    "gpus": int,
    "memory_gb": (int, float),
    "full_dp_probe_seconds": (int, float),
    "full_dp_states": int,
    "full_feasible": bool,
    "full_period": (int, float),
    "state_budget_hit": bool,
    "coarsened_layers": int,
    "plan_seconds": (int, float),
    "plan_feasible": bool,
    "plan_period": (int, float),
    "speedup_vs_sequential": (int, float),
    "serve_network": str,
    "serve_cold_seconds": (int, float),
    "serve_hit_seconds": (int, float),
    "serve_hit_speedup": (int, float),
}

# ISSUE acceptance criteria for the LLM-scale record: the DP must complete a
# >= 2000-layer transformer chain at P = 64 feasibly, without tripping the
# state budget. These are result-shaped, so they are never gated.
LLM_SCALE_MIN_LAYERS = 2000
LLM_SCALE_MIN_GPUS = 64
# The coarsened end-to-end plan's speedup is a period ratio (deterministic
# planner output, not wall clock), so this floor is ungated too.
LLM_SCALE_MIN_COARSE_SPEEDUP = 8.0
# The serve hit speedup IS wall clock — hardware-gated like the other
# timing floors.
LLM_SCALE_MIN_HIT_SPEEDUP = 100.0


def check_llm_scale(doc, path):
    """Validate the LLM-scale record: a full-depth transformer DP probe,
    the coarsened planning recipe, and a serve cold/hit pair. Optional —
    documents from before the transformer generator simply lack it."""
    llm = doc.get("llm_scale")
    if llm is None:
        return
    if not isinstance(llm, dict):
        fail(f"{path}: llm_scale must be an object")
    where = f"{path}: llm_scale"
    check_fields(llm, LLM_SCALE_FIELDS, where)
    hardware = llm["hardware_threads"]
    if hardware < 1:
        fail(f"{where}: hardware_threads must be >= 1")
    if llm["layers"] < LLM_SCALE_MIN_LAYERS:
        fail(f"{where}: layers {llm['layers']} below the "
             f"{LLM_SCALE_MIN_LAYERS}-layer floor")
    if llm["gpus"] < LLM_SCALE_MIN_GPUS:
        fail(f"{where}: gpus {llm['gpus']} below the "
             f"{LLM_SCALE_MIN_GPUS}-GPU floor")
    if not llm["full_feasible"]:
        fail(f"{where}: full-depth DP probe was infeasible")
    if llm["state_budget_hit"]:
        fail(f"{where}: full-depth DP probe hit the state budget")
    if not (llm["full_period"] > 0 and math.isfinite(llm["full_period"])):
        fail(f"{where}: full_period must be positive and finite")
    if llm["full_dp_states"] < 1 or llm["full_dp_probe_seconds"] <= 0:
        fail(f"{where}: full-depth probe states/timing must be positive")
    if not llm["plan_feasible"]:
        fail(f"{where}: coarsened end-to-end plan was infeasible")
    if llm["coarsened_layers"] < llm["gpus"]:
        fail(f"{where}: coarsened_layers {llm['coarsened_layers']} below "
             f"gpus {llm['gpus']} (one stage per GPU minimum)")
    if llm["speedup_vs_sequential"] < LLM_SCALE_MIN_COARSE_SPEEDUP:
        fail(f"{where}: coarsened speedup {llm['speedup_vs_sequential']:.2f}x "
             f"below the {LLM_SCALE_MIN_COARSE_SPEEDUP:g}x floor "
             "(period ratio, ungated)")
    if llm["serve_cold_seconds"] <= 0 or llm["serve_hit_seconds"] <= 0:
        fail(f"{where}: serve timings must be positive")
    enforce_hardware_gated_floor(llm["serve_hit_speedup"],
                                 LLM_SCALE_MIN_HIT_SPEEDUP, hardware, where,
                                 "serve hit speedup", unit="x")
    print(f"check_bench_schema: llm_scale OK ({llm['layers']} layers at "
          f"P={llm['gpus']}, {llm['full_dp_states']} states, coarsened "
          f"{llm['speedup_vs_sequential']:.1f}x)")


def check_planner_document(doc, path):
    if doc.get("schema") != PLANNER_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"expected {PLANNER_SCHEMA!r}")
    if not isinstance(doc.get("planner_stats_instrumented"), bool):
        fail(f"{path}: planner_stats_instrumented must be a bool")
    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        fail(f"{path}: workloads must be a non-empty array")
    for record in workloads:
        where = f"{path}: workload {record.get('name', '?')!r}"
        check_fields(record, WORKLOAD_FIELDS, where)
        if record["repeats"] < 1:
            fail(f"{where}: repeats must be >= 1")
        if record["per_solve_seconds"] < 0 or record["wall_seconds"] < 0:
            fail(f"{where}: negative timing")
        if record["feasible"]:
            if not (record["period"] > 0 and math.isfinite(record["period"])):
                fail(f"{where}: feasible but period is {record['period']}")
            if not record["allocation"]:
                fail(f"{where}: feasible but allocation fingerprint is empty")
        if doc["planner_stats_instrumented"]:
            if "stats" not in record:
                fail(f"{where}: instrumented build but no stats block")
            check_fields(record["stats"], STATS_FIELDS, where + " stats")
            present = {key: expected
                       for key, expected in OPTIONAL_STATS_FIELDS.items()
                       if key in record["stats"]}
            check_fields(record["stats"], present, where + " stats")
    names = [record["name"] for record in workloads]
    if len(set(names)) != len(names):
        fail(f"{path}: duplicate workload names")
    check_llm_scale(doc, path)
    return {record["name"]: record for record in workloads}


def check_planner_reference(current, reference):
    shared = sorted(set(current) & set(reference))
    if not shared:
        fail("no workloads shared with the reference file")
    for name in shared:
        cur, ref = current[name], reference[name]
        if cur["feasible"] != ref["feasible"]:
            fail(f"{name}: feasibility {cur['feasible']} != reference "
                 f"{ref['feasible']}")
        if not cur["feasible"]:
            continue
        if cur["period"] != ref["period"]:
            fail(f"{name}: period {cur['period']!r} != reference "
                 f"{ref['period']!r} (results must be bit-identical)")
        if cur["allocation"] != ref["allocation"]:
            fail(f"{name}: allocation {cur['allocation']!r} != reference "
                 f"{ref['allocation']!r}")
    print(f"check_bench_schema: {len(shared)} workloads match the reference "
          "(periods and allocations identical)")


SERVE_EQUIVALENCE_FIELDS = {
    "name": str,
    "cache": str,
    "identical": bool,
    "serve_period": (int, float),
    "direct_period": (int, float),
    "serve_allocation": str,
    "direct_allocation": str,
}

SERVE_SUMMARY_FIELDS = {
    "cold_plan_seconds": (int, float),
    "serve_miss_seconds": (int, float),
    "hit_p50_seconds": (int, float),
    "hit_p99_seconds": (int, float),
    "hit_speedup": (int, float),
}

SERVE_STATS_FIELDS = {
    "requests": int,
    "hits": int,
    "scaled_hits": int,
    "misses": int,
    "coalesced": int,
    "rejected": int,
    "degraded": int,
    "errors": int,
    "planner_runs": int,
    "evictions": int,
    "expirations": int,
    "key_collisions": int,
    "cache_entries": int,
    "cache_bytes": int,
}


def check_serve_document(doc, path):
    if doc.get("schema") != SERVE_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"expected {SERVE_SCHEMA!r}")
    equivalence = doc.get("equivalence")
    if not isinstance(equivalence, list) or not equivalence:
        fail(f"{path}: equivalence must be a non-empty array")
    for record in equivalence:
        where = f"{path}: equivalence {record.get('name', '?')!r}"
        check_fields(record, SERVE_EQUIVALENCE_FIELDS, where)
        if not record["identical"]:
            fail(f"{where}: served plan differs from direct planning")
        if record["serve_period"] != record["direct_period"]:
            fail(f"{where}: periods differ despite identical=true")
        if record["serve_allocation"] != record["direct_allocation"]:
            fail(f"{where}: allocations differ despite identical=true")
    names = [record["name"] for record in equivalence]
    if len(set(names)) != len(names):
        fail(f"{path}: duplicate equivalence record names")

    coalesce = doc.get("coalesce")
    if not isinstance(coalesce, dict):
        fail(f"{path}: missing coalesce block")
    check_fields(coalesce, {"clients": int, "planner_runs": int,
                            "coalesced": int}, f"{path}: coalesce")
    if coalesce["planner_runs"] != 1:
        fail(f"{path}: coalesce ran the planner {coalesce['planner_runs']} "
             "times; identical concurrent requests must collapse to 1")
    if coalesce["coalesced"] != coalesce["clients"] - 1:
        fail(f"{path}: {coalesce['clients']} clients should report "
             f"{coalesce['clients'] - 1} coalesced, "
             f"got {coalesce['coalesced']}")

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        fail(f"{path}: missing summary block")
    check_fields(summary, SERVE_SUMMARY_FIELDS, f"{path}: summary")
    for key in SERVE_SUMMARY_FIELDS:
        if not (summary[key] > 0 and math.isfinite(summary[key])):
            fail(f"{path}: summary {key} must be positive and finite")
    # Smoke runs still must clear the floor: a hit is a lookup, not a plan.
    if summary["hit_speedup"] < SERVE_MIN_HIT_SPEEDUP:
        fail(f"{path}: hit_speedup {summary['hit_speedup']:.1f} is below "
             f"the {SERVE_MIN_HIT_SPEEDUP:.0f}x floor")

    stats = doc.get("stats")
    if not isinstance(stats, dict):
        fail(f"{path}: missing stats block")
    check_fields(stats, SERVE_STATS_FIELDS, f"{path}: stats")
    if stats["errors"] != 0:
        fail(f"{path}: serve reported {stats['errors']} errors")
    return {record["name"]: record for record in equivalence}


def check_serve_reference(current, reference):
    shared = sorted(set(current) & set(reference))
    if not shared:
        fail("no equivalence records shared with the reference file")
    for name in shared:
        cur, ref = current[name], reference[name]
        if cur["serve_period"] != ref["serve_period"]:
            fail(f"{name}: period {cur['serve_period']!r} != reference "
                 f"{ref['serve_period']!r} (results must be bit-identical)")
        if cur["serve_allocation"] != ref["serve_allocation"]:
            fail(f"{name}: allocation {cur['serve_allocation']!r} != "
                 f"reference {ref['serve_allocation']!r}")
    print(f"check_bench_schema: {len(shared)} equivalence records match the "
          "reference (periods and allocations identical)")


# ISSUE acceptance floor: pipelined hit traffic over loopback TCP must
# sustain at least this many requests/second — enforceable only on hosts
# with real parallelism (the event loop, dispatch pool, and client all
# share the machine), so it is gated on the recorded hardware_threads.
NET_MIN_HIT_RPS_8T = 100_000.0
# A cache hit over loopback is a lookup plus two socket hops, never a
# planning run: p99 past this bound means the wire path is broken.
NET_MAX_HIT_P99_SECONDS = 0.1
# Arming tail sampling must not cost serving throughput: the armed /
# disarmed ratio of the fixed hit run has to stay near 1. The 0.8 floor
# allows ordinary run-to-run noise while catching a sampler that drags the
# hot path; gated on hardware_threads like the throughput floor (the
# signal is meaningless on an oversubscribed host).
NET_MIN_TAIL_SAMPLING_RATIO_8T = 0.8
# An admin /metrics scrape is one short HTTP exchange over loopback; a p50
# past this bound means the endpoint is blocking on the data plane.
NET_MAX_ADMIN_SCRAPE_P50_SECONDS = 0.1

NET_THROUGHPUT_FIELDS = {
    "clients": int,
    "window": int,
    "requests": int,
    "wall_seconds": (int, float),
    "requests_per_second": (int, float),
}

NET_SERVER_STATS_FIELDS = {
    "accepted": int,
    "closed": int,
    "frames": int,
    "responses": int,
    "shed_rate": int,
    "shed_depth": int,
    "protocol_errors": int,
    "oversized": int,
    "bytes_in": int,
    "bytes_out": int,
}


def check_net_document(doc, path):
    if doc.get("schema") != NET_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"expected {NET_SCHEMA!r}")
    hardware = doc.get("hardware_threads")
    if not isinstance(hardware, int) or isinstance(hardware, bool) \
            or hardware < 1:
        fail(f"{path}: hardware_threads must be an int >= 1")
    smoke = doc.get("smoke")
    if not isinstance(smoke, bool):
        fail(f"{path}: smoke must be a bool")

    equivalence = doc.get("equivalence")
    if not isinstance(equivalence, list) or not equivalence:
        fail(f"{path}: equivalence must be a non-empty array")
    for record in equivalence:
        where = f"{path}: equivalence {record.get('name', '?')!r}"
        check_fields(record, {"name": str, "cache": str, "identical": bool},
                     where)
        if not record["identical"]:
            fail(f"{where}: wire response differs from batch-mode serve")
    by_name = {record["name"]: record for record in equivalence}
    if len(by_name) != len(equivalence):
        fail(f"{path}: duplicate equivalence record names")
    if by_name.get("net_miss", {}).get("cache") != "miss":
        fail(f"{path}: net_miss must report cache 'miss'")
    if by_name.get("net_hit", {}).get("cache") != "hit":
        fail(f"{path}: net_hit must report cache 'hit'")

    latency = doc.get("latency")
    if not isinstance(latency, dict):
        fail(f"{path}: missing latency block")
    check_fields(latency, {"p50_seconds": (int, float),
                           "p95_seconds": (int, float),
                           "p99_seconds": (int, float)}, f"{path}: latency")
    p50, p95, p99 = (latency["p50_seconds"], latency["p95_seconds"],
                     latency["p99_seconds"])
    if not (0 < p50 <= p95 <= p99) or not math.isfinite(p99):
        fail(f"{path}: latency percentiles must satisfy 0 < p50 <= p95 <= "
             f"p99 (got {p50!r}, {p95!r}, {p99!r})")
    if p99 > NET_MAX_HIT_P99_SECONDS:
        fail(f"{path}: hit p99 {p99:.4f}s exceeds the "
             f"{NET_MAX_HIT_P99_SECONDS}s sanity bound")

    throughput = doc.get("throughput")
    if not isinstance(throughput, list) or not throughput:
        fail(f"{path}: throughput must be a non-empty array")
    previous_clients = 0
    peak = 0.0
    for record in throughput:
        where = f"{path}: throughput {record.get('clients', '?')} clients"
        check_fields(record, NET_THROUGHPUT_FIELDS, where)
        if record["clients"] <= previous_clients:
            fail(f"{where}: client counts must be strictly increasing")
        previous_clients = record["clients"]
        if record["window"] < 1 or record["requests"] < 1:
            fail(f"{where}: window and requests must be >= 1")
        if record["requests_per_second"] <= 0:
            fail(f"{where}: non-positive requests_per_second")
        peak = max(peak, record["requests_per_second"])
    # The throughput floor binds only where the host can deliver it: the
    # loop thread, dispatch pool, and load generator share the machine.
    enforce_hardware_gated_floor(peak, NET_MIN_HIT_RPS_8T, hardware, path,
                                 "peak hit throughput", smoke=smoke,
                                 unit=" req/s")

    mixed = doc.get("mixed")
    if not isinstance(mixed, dict):
        fail(f"{path}: missing mixed block")
    check_fields(mixed, {"requests": int, "hits": int, "misses": int,
                         "wall_seconds": (int, float),
                         "requests_per_second": (int, float)},
                 f"{path}: mixed")
    if mixed["hits"] + mixed["misses"] > mixed["requests"]:
        fail(f"{path}: mixed hits + misses exceed total requests")
    if mixed["hits"] < 1 or mixed["misses"] < 1:
        fail(f"{path}: the mixed phase must contain both hits and misses")

    overload = doc.get("overload")
    if not isinstance(overload, dict):
        fail(f"{path}: missing overload block")
    check_fields(overload, {"frames": int, "tokens_per_second": (int, float),
                            "token_burst": (int, float), "served": int,
                            "rejected": int, "shed_fraction": (int, float)},
                 f"{path}: overload")
    if overload["served"] + overload["rejected"] != overload["frames"]:
        fail(f"{path}: overload served + rejected != frames "
             f"(every frame must be answered, shed or not)")
    if not 0.0 <= overload["shed_fraction"] <= 1.0:
        fail(f"{path}: overload shed_fraction outside [0, 1]")
    if overload["rejected"] < 1:
        fail(f"{path}: an over-budget burst must shed at least one frame")
    expected = overload["rejected"] / overload["frames"]
    if abs(overload["shed_fraction"] - expected) > 1e-9:
        fail(f"{path}: shed_fraction {overload['shed_fraction']!r} != "
             f"rejected/frames {expected!r}")

    admin = doc.get("admin")
    if not isinstance(admin, dict):
        fail(f"{path}: missing admin block")
    check_fields(admin, {"scrapes": int,
                         "scrape_p50_seconds": (int, float),
                         "scrape_p95_seconds": (int, float),
                         "metrics_bytes": int,
                         "healthz_ok": bool}, f"{path}: admin")
    if admin["scrapes"] < 1 or admin["metrics_bytes"] < 1:
        fail(f"{path}: admin scrapes and metrics_bytes must be >= 1")
    if not (0 < admin["scrape_p50_seconds"] <= admin["scrape_p95_seconds"]):
        fail(f"{path}: admin scrape percentiles must satisfy "
             f"0 < p50 <= p95")
    if admin["scrape_p50_seconds"] > NET_MAX_ADMIN_SCRAPE_P50_SECONDS:
        fail(f"{path}: admin scrape p50 {admin['scrape_p50_seconds']:.4f}s "
             f"exceeds the {NET_MAX_ADMIN_SCRAPE_P50_SECONDS}s sanity bound")
    if not admin["healthz_ok"]:
        fail(f"{path}: /healthz did not answer ok on a live server")

    tail = doc.get("tail_sampling")
    if not isinstance(tail, dict):
        fail(f"{path}: missing tail_sampling block")
    check_fields(tail, {"requests": int,
                        "baseline_requests_per_second": (int, float),
                        "armed_requests_per_second": (int, float),
                        "throughput_ratio": (int, float)},
                 f"{path}: tail_sampling")
    if tail["requests"] < 1:
        fail(f"{path}: tail_sampling requests must be >= 1")
    if tail["baseline_requests_per_second"] <= 0 \
            or tail["armed_requests_per_second"] <= 0:
        fail(f"{path}: tail_sampling rates must be positive")
    expected_ratio = (tail["armed_requests_per_second"]
                      / tail["baseline_requests_per_second"])
    if abs(tail["throughput_ratio"] - expected_ratio) > 1e-6:
        fail(f"{path}: tail_sampling throughput_ratio "
             f"{tail['throughput_ratio']!r} != armed/baseline "
             f"{expected_ratio!r}")
    enforce_hardware_gated_floor(tail["throughput_ratio"],
                                 NET_MIN_TAIL_SAMPLING_RATIO_8T, hardware,
                                 path, "tail-sampling throughput ratio",
                                 smoke=smoke, unit="x")

    stats = doc.get("server_stats")
    if not isinstance(stats, dict):
        fail(f"{path}: missing server_stats block")
    check_fields(stats, NET_SERVER_STATS_FIELDS, f"{path}: server_stats")
    if stats["protocol_errors"] != 0:
        fail(f"{path}: the bench sent only well-formed frames but the "
             f"server counted {stats['protocol_errors']} protocol errors")
    if stats["frames"] != stats["responses"]:
        fail(f"{path}: server frames {stats['frames']} != responses "
             f"{stats['responses']} (every frame earns exactly one line)")
    return by_name


def check_net_reference(current, reference):
    shared = sorted(set(current) & set(reference))
    if not shared:
        fail("no equivalence records shared with the reference file")
    for name in shared:
        if current[name]["cache"] != reference[name]["cache"]:
            fail(f"{name}: cache outcome {current[name]['cache']!r} != "
                 f"reference {reference[name]['cache']!r}")
    print(f"check_bench_schema: {len(shared)} net equivalence records match "
          "the reference")


EXPLAIN_STAGE_FIELDS = {
    "stage": int,
    "first_layer": int,
    "last_layer": int,
    "processor": int,
    "forward_seconds": (int, float),
    "backward_seconds": (int, float),
    "weight_bytes": (int, float),
    "activation_bytes_per_batch": (int, float),
    "max_in_flight": int,
}

EXPLAIN_RESOURCE_FIELDS = {
    "resource": str,
    "busy_seconds": (int, float),
    "utilization": (int, float),
    "bubble_fraction": (int, float),
}

EXPLAIN_MEMORY_FIELDS = {
    "gpu": int,
    "weights_bytes": (int, float),
    "scratch_bytes": (int, float),
    "comm_buffers_bytes": (int, float),
    "activations_peak_bytes": (int, float),
    "peak_bytes": (int, float),
    "limit_bytes": (int, float),
    "headroom_bytes": (int, float),
    "binding_term": str,
}

EXPLAIN_BINDING_TERMS = {"weights", "activations", "comm_buffers"}


def check_explain_document(doc, path):
    if doc.get("schema") != EXPLAIN_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"expected {EXPLAIN_SCHEMA!r}")
    check_fields(doc, {"planner": str, "period_seconds": (int, float),
                       "phase1_period_seconds": (int, float),
                       "num_stages": int, "gpus": int,
                       "critical_resource": str,
                       "critical_utilization": (int, float),
                       "mean_gpu_utilization": (int, float),
                       "simulated": bool}, path)
    period = doc["period_seconds"]
    if not (period > 0 and math.isfinite(period)):
        fail(f"{path}: period_seconds must be positive and finite")

    stages = doc.get("stages")
    if not isinstance(stages, list) or len(stages) != doc["num_stages"]:
        fail(f"{path}: stages must be an array of num_stages records")
    for record in stages:
        where = f"{path}: stage {record.get('stage', '?')}"
        check_fields(record, EXPLAIN_STAGE_FIELDS, where)
        if record["max_in_flight"] < 1:
            fail(f"{where}: max_in_flight must be >= 1")
        if not 0 <= record["processor"] < doc["gpus"]:
            fail(f"{where}: processor out of range")

    resources = doc.get("resources")
    if not isinstance(resources, list) or len(resources) < doc["gpus"]:
        fail(f"{path}: resources must list at least every GPU")
    utilization_of = {}
    for record in resources:
        where = f"{path}: resource {record.get('resource', '?')!r}"
        check_fields(record, EXPLAIN_RESOURCE_FIELDS, where)
        if not 0.0 <= record["utilization"] <= 1.0:
            fail(f"{where}: utilization outside [0, 1]")
        if abs(record["utilization"] + record["bubble_fraction"] - 1.0) > 1e-9:
            fail(f"{where}: utilization + bubble_fraction != 1")
        utilization_of[record["resource"]] = record["utilization"]
    critical = doc["critical_resource"]
    if critical not in utilization_of:
        fail(f"{path}: critical_resource {critical!r} not in resources")
    if utilization_of[critical] != doc["critical_utilization"]:
        fail(f"{path}: critical_utilization does not match the table")
    if doc["critical_utilization"] < max(utilization_of.values()):
        fail(f"{path}: critical_resource is not the argmax utilization")
    if not 0.0 <= doc["mean_gpu_utilization"] <= 1.0:
        fail(f"{path}: mean_gpu_utilization outside [0, 1]")

    memory = doc.get("memory")
    if not isinstance(memory, list) or len(memory) != doc["gpus"]:
        fail(f"{path}: memory must have one record per GPU")
    for record in memory:
        where = f"{path}: memory gpu{record.get('gpu', '?')}"
        check_fields(record, EXPLAIN_MEMORY_FIELDS, where)
        peak, limit = record["peak_bytes"], record["limit_bytes"]
        if record["headroom_bytes"] != limit - peak:
            fail(f"{where}: headroom_bytes != limit_bytes - peak_bytes")
        term_sum = (record["weights_bytes"] + record["scratch_bytes"] +
                    record["comm_buffers_bytes"] +
                    record["activations_peak_bytes"])
        if abs(term_sum - peak) > 1e-6 * max(1.0, abs(peak)):
            fail(f"{where}: decomposition sums to {term_sum!r}, "
                 f"peak is {peak!r}")
        if record["binding_term"] not in EXPLAIN_BINDING_TERMS:
            fail(f"{where}: unknown binding_term "
                 f"{record['binding_term']!r}")
        curve = record.get("curve")
        if not isinstance(curve, list) or not curve:
            fail(f"{where}: curve must be a non-empty array")
        previous = -1.0
        curve_max = 0.0
        for point in curve:
            check_fields(point, {"time_seconds": (int, float),
                                 "bytes": (int, float)}, where + " curve")
            if not 0.0 <= point["time_seconds"] < period:
                fail(f"{where}: curve time outside [0, period)")
            if point["time_seconds"] <= previous:
                fail(f"{where}: curve not strictly time-sorted")
            previous = point["time_seconds"]
            curve_max = max(curve_max, point["bytes"])
        if curve_max != peak:
            fail(f"{where}: curve max {curve_max!r} != peak {peak!r}")

    if doc["simulated"]:
        check_fields(doc, {"simulated_period_seconds": (int, float),
                           "period_delta_fraction": (int, float)}, path)
        # The ASAP execution of a valid pattern never runs slower than the
        # pattern's own period (float noise aside).
        if doc["period_delta_fraction"] > 1e-6:
            fail(f"{path}: simulated period exceeds the analytic period "
                 f"(delta {doc['period_delta_fraction']!r})")
    return {f"gpu{record['gpu']}": record for record in memory} | {
        "__period__": {"period_seconds": period,
                       "num_stages": doc["num_stages"]}}


def check_explain_reference(current, reference):
    shared = sorted(set(current) & set(reference))
    if not shared:
        fail("nothing shared with the reference file")
    for name in shared:
        cur, ref = current[name], reference[name]
        if name == "__period__":
            if cur["period_seconds"] != ref["period_seconds"]:
                fail(f"period {cur['period_seconds']!r} != reference "
                     f"{ref['period_seconds']!r} (must be bit-identical)")
            if cur["num_stages"] != ref["num_stages"]:
                fail(f"num_stages {cur['num_stages']} != reference "
                     f"{ref['num_stages']}")
            continue
        if cur["peak_bytes"] != ref["peak_bytes"]:
            fail(f"{name}: peak_bytes {cur['peak_bytes']!r} != reference "
                 f"{ref['peak_bytes']!r} (must be bit-identical)")
    print(f"check_bench_schema: {len(shared)} explain records match the "
          "reference (period and peaks identical)")


# ISSUE acceptance floor: the calendar-queue engine must sustain at least
# this many push+pop pairs per second in the churn microbench — gated on
# recorded hardware_threads like the other perf floors (the engine is
# single-threaded, but slow shared CI cores are exempted the same way).
FLEET_MIN_ENGINE_EPS_8T = 500_000.0

FLEET_POLICY_FIELDS = {
    "policy": str,
    "jobs_in": int,
    "completed": int,
    "failed": int,
    "stranded": int,
    "accounting_exact": bool,
    "makespan_s": (int, float),
    "utilization": (int, float),
    "wait_mean_s": (int, float),
    "wait_p50_s": (int, float),
    "wait_p99_s": (int, float),
    "wait_max_s": (int, float),
    "plans": int,
    "cache_hits": int,
    "cache_misses": int,
    "cache_hit_rate": (int, float),
    "replans": int,
    "preemptions": int,
    "deadlines_met": int,
    "deadlines_missed": int,
    "events_dispatched": int,
    "event_log_hash": str,
    "wall_seconds": (int, float),
}

FLEET_POLICIES = ["fifo", "deadline", "affinity"]


def check_fleet_document(doc, path):
    if doc.get("schema") != FLEET_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"expected {FLEET_SCHEMA!r}")
    hardware = doc.get("hardware_threads")
    if not isinstance(hardware, int) or isinstance(hardware, bool) \
            or hardware < 1:
        fail(f"{path}: hardware_threads must be an int >= 1")
    smoke = doc.get("smoke")
    if not isinstance(smoke, bool):
        fail(f"{path}: smoke must be a bool")

    workload = doc.get("workload")
    if not isinstance(workload, dict):
        fail(f"{path}: missing workload block")
    check_fields(workload, {"seed": int, "jobs": int, "pool_gpus": int,
                            "resize_events": int}, f"{path}: workload")

    policies = doc.get("policies")
    if not isinstance(policies, list) or not policies:
        fail(f"{path}: policies must be a non-empty array")
    by_policy = {}
    for record in policies:
        name = record.get("policy", "?")
        where = f"{path}: policy {name!r}"
        check_fields(record, FLEET_POLICY_FIELDS, where)
        if name in by_policy:
            fail(f"{path}: duplicate policy record {name!r}")
        by_policy[name] = record
        # The headline acceptance criterion: accounting must close exactly,
        # and no job may be left stranded (a stranded job means the
        # simulator deadlocked a placement).
        if record["jobs_in"] != record["completed"] + record["failed"] + \
                record["stranded"]:
            fail(f"{where}: jobs_in {record['jobs_in']} != completed "
                 f"{record['completed']} + failed {record['failed']} + "
                 f"stranded {record['stranded']}")
        if not record["accounting_exact"]:
            fail(f"{where}: accounting_exact is false")
        if record["stranded"] != 0:
            fail(f"{where}: {record['stranded']} jobs left stranded")
        if not 0.0 <= record["utilization"] <= 1.0:
            fail(f"{where}: utilization {record['utilization']!r} outside "
                 f"[0, 1]")
        waits = (record["wait_mean_s"], record["wait_p50_s"],
                 record["wait_p99_s"], record["wait_max_s"])
        if any(not math.isfinite(w) or w < 0 for w in waits):
            fail(f"{where}: wait statistics must be finite and >= 0")
        if not record["wait_p50_s"] <= record["wait_p99_s"] \
                <= record["wait_max_s"]:
            fail(f"{where}: wait percentiles must satisfy p50 <= p99 <= max")
        if record["cache_hits"] + record["cache_misses"] != record["plans"]:
            fail(f"{where}: cache_hits + cache_misses != plans")
        # Exact, not approximate: the bench computes hits/plans in IEEE
        # doubles and the JSON round-trips them, so == is the right test.
        expected_rate = (record["cache_hits"] / record["plans"]
                         if record["plans"] else 0.0)
        if record["cache_hit_rate"] != expected_rate:
            fail(f"{where}: cache_hit_rate {record['cache_hit_rate']!r} != "
                 f"hits/plans {expected_rate!r}")
        if len(record["event_log_hash"]) != 16 or \
                any(c not in "0123456789abcdef"
                    for c in record["event_log_hash"]):
            fail(f"{where}: event_log_hash must be 16 lowercase hex chars")
    for name in FLEET_POLICIES:
        if name not in by_policy:
            fail(f"{path}: missing policy record {name!r}")

    determinism = doc.get("determinism")
    if not isinstance(determinism, dict):
        fail(f"{path}: missing determinism block")
    check_fields(determinism, {"policy": str, "runs": int,
                               "identical_logs": bool,
                               "event_log_hash": str},
                 f"{path}: determinism")
    if determinism["runs"] < 2:
        fail(f"{path}: determinism needs at least 2 runs")
    if not determinism["identical_logs"]:
        fail(f"{path}: determinism reruns diverged")
    pinned = by_policy.get(determinism["policy"], {}).get("event_log_hash")
    if pinned != determinism["event_log_hash"]:
        fail(f"{path}: determinism hash does not match the "
             f"{determinism['policy']!r} policy record")

    engine = doc.get("engine")
    if not isinstance(engine, dict):
        fail(f"{path}: missing engine block")
    check_fields(engine, {"events": int, "wall_seconds": (int, float),
                          "events_per_second": (int, float),
                          "far_inserts": int, "refills": int,
                          "ordered": bool}, f"{path}: engine")
    if not engine["ordered"]:
        fail(f"{path}: engine churn popped events out of (time, seq) order")
    if engine["events"] < 1 or engine["events_per_second"] <= 0:
        fail(f"{path}: engine events and events_per_second must be positive")
    enforce_hardware_gated_floor(engine["events_per_second"],
                                 FLEET_MIN_ENGINE_EPS_8T, hardware, path,
                                 "engine throughput", smoke=smoke,
                                 unit=" events/s")

    summary = doc.get("summary")
    if not isinstance(summary, dict):
        fail(f"{path}: missing summary block")
    check_fields(summary, {"fifo_hit_rate": (int, float),
                           "affinity_hit_rate": (int, float),
                           "events_per_second": (int, float)},
                 f"{path}: summary")
    if summary["fifo_hit_rate"] != by_policy["fifo"]["cache_hit_rate"] or \
            summary["affinity_hit_rate"] != \
            by_policy["affinity"]["cache_hit_rate"]:
        fail(f"{path}: summary hit-rates do not match the policy records")
    # Structural, not a perf floor, so never gated: steering placements
    # onto warm (network, width) pairs is the affinity policy's entire
    # reason to exist.
    if summary["affinity_hit_rate"] <= summary["fifo_hit_rate"]:
        fail(f"{path}: affinity hit-rate "
             f"{summary['affinity_hit_rate']:.3f} does not beat fifo "
             f"{summary['fifo_hit_rate']:.3f}")

    print(f"check_bench_schema: fleet OK ({len(policies)} policies, "
          f"affinity {summary['affinity_hit_rate']:.1%} vs fifo "
          f"{summary['fifo_hit_rate']:.1%}, engine "
          f"{engine['events_per_second']:.0f} events/s)")
    return by_policy


def check_fleet_reference(current, reference):
    """Event-log hashes are deterministic per host but depend on libm (the
    planner's periods feed the log), so the reference pins accounting shape,
    not bits: same policies, and identical jobs_in/completed/failed when the
    workloads match."""
    shared = sorted(set(current) & set(reference))
    if not shared:
        fail("reference comparison: no shared policy records")
    for name in shared:
        cur, ref = current[name], reference[name]
        if cur["jobs_in"] != ref["jobs_in"]:
            continue  # different workload size; nothing comparable
        for key in ("completed", "failed", "stranded"):
            if cur[key] != ref[key]:
                fail(f"policy {name!r}: {key} {cur[key]!r} != reference "
                     f"{ref[key]!r}")
    print(f"check_bench_schema: {len(shared)} fleet policy records match "
          "the reference accounting")


CHECKERS = {
    PLANNER_SCHEMA: (check_planner_document, check_planner_reference),
    SERVE_SCHEMA: (check_serve_document, check_serve_reference),
    NET_SCHEMA: (check_net_document, check_net_reference),
    EXPLAIN_SCHEMA: (check_explain_document, check_explain_reference),
    FLEET_SCHEMA: (check_fleet_document, check_fleet_reference),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="bench output to validate")
    parser.add_argument("--reference",
                        help="committed baseline to compare results against")
    args = parser.parse_args()

    with open(args.bench_json) as handle:
        doc = json.load(handle)
    schema = doc.get("schema")
    if schema not in CHECKERS:
        fail(f"{args.bench_json}: unknown schema {schema!r} "
             f"(known: {sorted(CHECKERS)})")
    check_document, check_reference = CHECKERS[schema]
    current = check_document(doc, args.bench_json)
    print(f"check_bench_schema: {args.bench_json}: {schema} OK "
          f"({len(current)} records)")

    if args.reference:
        with open(args.reference) as handle:
            ref_doc = json.load(handle)
        if ref_doc.get("schema") != schema:
            fail(f"{args.reference}: reference schema "
                 f"{ref_doc.get('schema')!r} does not match {schema!r}")
        reference = check_document(ref_doc, args.reference)
        check_reference(current, reference)


if __name__ == "__main__":
    main()
