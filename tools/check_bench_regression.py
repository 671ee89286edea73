#!/usr/bin/env python3
"""Guard against gross performance regressions in the BENCH_*.json emitters.

CI runs the benchmark smoke suite (SLICER_BENCH_SCALE=0.05, SLICER_THREADS=2)
and hands the produced JSON files to this script, which compares each row's
wall time against the committed baseline snapshot under bench/baselines/.

The threshold is deliberately generous (default 5x): CI machines differ from
the machine that seeded the baselines, and the smoke scale keeps individual
rows small and noisy. The check exists to catch order-of-magnitude mistakes —
an accidentally quadratic path, a dropped cache, a serialized parallel
region — not single-digit-percent drift. Rows below --min-ms in BOTH runs
are ignored entirely (they are timer noise at smoke scale).

Structural checks ride along:
  * a baseline row missing from the current run fails (a silently dropped
    benchmark looks exactly like a fixed regression),
  * for BENCH_planner.json, every clause-count × selectivity grid cell
    must be present with a sane clause count, the verified
    aggregates (COUNT/MIN/MAX/top-k) must have run (with binary-search
    probes spent), and the combiner-cache warm row must be served entirely
    from cache,
  * for BENCH_micro.json, a same-run ratio gate: the owner's CRT trapdoor
    inverse (Micro/TrapdoorInverse/Crt) must be at least
    MIN_TRAPDOOR_CRT_SPEEDUP (2x) faster than the full-width
    y^d mod n reference (Micro/TrapdoorInverse/Reference) in the SAME file.
    Both rows run on one machine in one process, so the ratio carries across
    hosts where the wall-time baseline does not (CRT costs ~1/3 to ~1/4 of
    the reference: two half-width exponentiations).
    A second gate in that file: when the Micro/Sha256/4KiB row reports
    sha_ni = 1 (Sha256 selected its SHA-NI kernel), it must be at least
    MIN_SHA256_KERNEL_SPEEDUP (3x) faster than Micro/Sha256/4KiB/Portable,
    the same 65 compressions on the portable kernel. A runner without the
    SHA extensions reports sha_ni = 0 and skips the ratio (SHA-NI runs
    ~6x faster than the portable kernel on a 2-vCPU AMD EPYC).
  * for BENCH_ablation_witness.json, the same kind of gate: a first-touch
    witness fill seeded from the shard value kept at the previous write
    (FirstTouch/1024/seeded) must be at least MIN_FIRST_TOUCH_SEED_SPEEDUP
    (2x) faster than one combed from g (FirstTouch/1024/comb). The rows
    have a fixed shape at every SLICER_BENCH_SCALE; the seeded fill raises
    the kept value to 48 primes by generic modexp where the comb covers
    1008 (~3x at 1024-bit moduli, the run's own primes included in both).
    A second gate in that file: the mean warm witness of one frontier run
    (InRun/1024/warm, a descent from a node an earlier witness of the run
    cached) must be at least MIN_IN_RUN_WARM_SPEEDUP (2.5x) faster than the
    run's cold first witness (InRun/1024/cold, a descent from W_c over 15
    primes in four modexps). A whole run costs 4096 exponent bits against
    16 x 960 without the cached nodes, so warm is ~4.7x cheaper in
    exponent bits; the per-call fixed costs keep the measured ratio lower.
  * BENCH_robustness.json is checked structurally INSTEAD of by wall time:
    the soak runs under sanitizers in CI (10x+ skew vs the release-built
    baseline), so timing ratios are meaningless there. What must hold is
    row presence against the baseline plus the soak invariants the rows
    carry — zero false accepts / false rejects / settlement violations in
    every reorg-dispute row, at least one case and 100% detection in every
    taxonomy row, exactly-once mempool-flood settlement, bit-identical recovery,
    and the flooded victim tenant's p99 within its recorded bound.

Usage: check_bench_regression.py BENCH_a.json [BENCH_b.json ...]
           [--baseline-dir bench/baselines] [--threshold 5.0]
           [--min-ms 5.0]

stdlib only — no third-party packages.
"""

import argparse
import json
import os
import sys

# Same-run floor for Micro/TrapdoorInverse: Crt must be this many times
# faster than Reference in one BENCH_micro.json.
MIN_TRAPDOOR_CRT_SPEEDUP = 2.0

# Same-run floor for Micro/Sha256/4KiB: when the row says the SHA-NI kernel
# was selected, it must be this many times faster than the portable kernel
# (Micro/Sha256/4KiB/Portable) in one BENCH_micro.json.
MIN_SHA256_KERNEL_SPEEDUP = 3.0

# Same-run floor for FirstTouch/1024: seeded must be this many times faster
# than comb in one BENCH_ablation_witness.json.
MIN_FIRST_TOUCH_SEED_SPEEDUP = 2.0

# Same-run floor for InRun/1024: warm must be this many times faster than
# cold in one BENCH_ablation_witness.json.
MIN_IN_RUN_WARM_SPEEDUP = 2.5


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {row["name"]: row for row in doc.get("rows", [])}


def check_file(current_path, baseline_path, args):
    failures = []
    current = load_rows(current_path)
    baseline = load_rows(baseline_path)

    for name, base_row in sorted(baseline.items()):
        cur_row = current.get(name)
        if cur_row is None:
            failures.append(f"{name}: present in baseline but missing from run")
            continue
        base_ms = float(base_row.get("real_ms", 0))
        cur_ms = float(cur_row.get("real_ms", 0))
        if base_ms < args.min_ms and cur_ms < args.min_ms:
            continue  # timer noise at smoke scale
        if base_ms <= 0:
            continue
        ratio = cur_ms / base_ms
        if ratio > args.threshold:
            failures.append(
                f"{name}: {cur_ms:.1f} ms vs baseline {base_ms:.1f} ms "
                f"({ratio:.1f}x > {args.threshold:.1f}x)"
            )
    return failures


def check_same_run_speedup(current_path, slow_name, fast_name, floor, what):
    """Same-run ratio: row `fast_name` must be at least `floor` times faster
    than row `slow_name` in one file."""
    rows = load_rows(current_path)
    slow = rows.get(slow_name)
    fast = rows.get(fast_name)
    if slow is None or fast is None:
        return [f"{current_path}: {slow_name} or {fast_name} row missing"]
    slow_ms = float(slow.get("real_ms", 0))
    fast_ms = float(fast.get("real_ms", 0))
    if slow_ms <= 0 or fast_ms <= 0:
        return [f"{fast_name}: non-positive times "
                f"({fast_ms} ms vs {slow_ms} ms)"]
    speedup = slow_ms / fast_ms
    if speedup < floor:
        return [f"{fast_name}: {speedup:.2f}x vs {slow_name} < {floor:.1f}x "
                f"({fast_ms:.3f} ms vs {slow_ms:.3f} ms)"]
    print(f"  {what} OK: {speedup:.2f}x faster "
          f"({fast_ms:.3f} ms vs {slow_ms:.3f} ms)")
    return []


def check_trapdoor_crt_speedup(current_path):
    """The CRT inverse must beat the full-width y^d mod n reference."""
    return check_same_run_speedup(
        current_path, "Micro/TrapdoorInverse/Reference/iterations:64",
        "Micro/TrapdoorInverse/Crt/iterations:64", MIN_TRAPDOOR_CRT_SPEEDUP,
        "trapdoor inverse: CRT vs y^d mod n")


def check_sha256_kernel_speedup(current_path):
    """The selected SHA-NI kernel must beat the portable kernel; skipped
    where the runner has no SHA extensions."""
    selected = load_rows(current_path).get("Micro/Sha256/4KiB/iterations:512")
    if selected is None:
        return [f"{current_path}: Micro/Sha256/4KiB row missing"]
    if float(selected.get("sha_ni", 0)) != 1:
        print("  SHA-256 kernel: portable selected (no SHA-NI), ratio skipped")
        return []
    return check_same_run_speedup(
        current_path, "Micro/Sha256/4KiB/Portable/iterations:512",
        "Micro/Sha256/4KiB/iterations:512", MIN_SHA256_KERNEL_SPEEDUP,
        "SHA-256: SHA-NI vs portable kernel")


def check_first_touch_seed_speedup(current_path):
    """A seeded first-touch fill must beat a comb from g."""
    return check_same_run_speedup(
        current_path, "FirstTouch/1024/comb", "FirstTouch/1024/seeded",
        MIN_FIRST_TOUCH_SEED_SPEEDUP,
        "first-touch fill: seeded vs comb from g")


def check_in_run_warm_speedup(current_path):
    """A warm in-run witness must beat the run's cold first witness."""
    return check_same_run_speedup(
        current_path, "InRun/1024/cold", "InRun/1024/warm",
        MIN_IN_RUN_WARM_SPEEDUP,
        "in-run witness: warm vs cold descent")


def check_throughput_structure(current_path):
    """The wire-protocol bench must cover every K.

    Absolute qps at smoke scale is dominated by warm-up noise, so no
    wall-time claim is made here beyond the generic ratio check; what must
    hold structurally is that every K produced a row, each fleet actually
    completed requests, and the latency percentiles are internally
    consistent (p50 <= p99, both positive).
    """
    rows = load_rows(current_path)
    failures = []
    for k in (1, 4, 8):
        name = f"throughput/legacy/K{k}"
        row = rows.get(name)
        if row is None:
            failures.append(f"{name}: missing from {current_path}")
            continue
        qps = float(row.get("qps", 0))
        p50 = float(row.get("p50_ms", 0))
        p99 = float(row.get("p99_ms", 0))
        requests = float(row.get("iterations", 0))
        row_failures = []
        if qps <= 0 or requests <= 0:
            row_failures.append(f"{name}: no completed requests (qps={qps})")
        if p50 <= 0 or p99 <= 0 or p50 > p99:
            row_failures.append(
                f"{name}: inconsistent percentiles "
                f"(p50={p50:.3f} ms, p99={p99:.3f} ms)"
            )
        if not row_failures:
            print(
                f"  throughput OK: {name} {qps:.1f} qps, "
                f"p50 {p50:.3f} ms, p99 {p99:.3f} ms"
            )
        failures += row_failures
    return failures


def check_planner_structure(current_path):
    """The boolean-planner bench must cover its whole grid, verified.

    The binary itself exits non-zero when any measured query fails to
    verify or diverges from the plaintext oracle; this re-checks the
    emitted rows so a run that silently dropped a grid cell (or a stale
    artifact) cannot pass. What must hold: every clause-count × selectivity
    cell produced a row with a sane clause count, every verified-aggregate
    row is present (MIN/MAX/top-k with binary-search probes actually
    spent), and the combiner-cache warm row was served entirely from cache.
    """
    rows = load_rows(current_path)
    failures = []
    for leaves in (1, 2, 4, 8):
        for level in ("narrow", "mid", "wide"):
            name = f"Planner/legacy/leaves{leaves}/{level}"
            row = rows.get(name)
            if row is None:
                failures.append(f"{name}: missing from {current_path}")
                continue
            clauses = float(row.get("clauses", 0))
            if clauses < leaves:
                failures.append(
                    f"{name}: only {clauses:.0f} clauses for "
                    f"{leaves} leaves (each leaf lowers to >= 1 clause)"
                )
    for name in ("PlannerAggregate/count", "PlannerAggregate/min",
                 "PlannerAggregate/max", "PlannerAggregate/top_k"):
        row = rows.get(name)
        if row is None:
            failures.append(f"{name}: missing from {current_path}")
        elif name != "PlannerAggregate/count" and float(row.get("probes", 0)) <= 0:
            failures.append(f"{name}: no verified binary-search probes spent")
    warm = rows.get("PlannerCache/warm")
    if warm is None or "PlannerCache/cold" not in rows:
        failures.append(f"PlannerCache/cold+warm: missing from {current_path}")
    elif (float(warm.get("clauses", 0)) <= 0
          or float(warm.get("cached_clauses", -1)) != float(warm.get("clauses", 0))):
        failures.append(
            f"PlannerCache/warm: {warm.get('cached_clauses')}/"
            f"{warm.get('clauses')} clauses cached (warm repeat must be "
            "served entirely from the combiner cache)"
        )
    if not failures:
        agg = rows.get("PlannerAggregate/min", {})
        print(
            f"  planner OK: 12 grid cells, aggregates present "
            f"(min probes {agg.get('probes', 0):.0f}), warm cache "
            f"{warm.get('cached_clauses', 0):.0f}/{warm.get('clauses', 0):.0f}"
        )
    return failures


def check_robustness_structure(current_path, baseline_path):
    """Soak-invariant gates for the robustness bench (no wall-time claims).

    The binary itself exits non-zero on a violated invariant; this re-checks
    the emitted rows so a run that silently dropped a scenario (or a stale
    artifact) cannot pass, and so sanitizer-skewed CI runs are still gated
    without comparing wall times against the release-built baseline.
    """
    rows = load_rows(current_path)
    failures = []

    if os.path.exists(baseline_path):
        for name in sorted(load_rows(baseline_path)):
            if name not in rows:
                failures.append(f"{name}: present in baseline but missing from run")

    for name, row in sorted(rows.items()):
        if name.startswith("detection/"):
            if int(row.get("iterations", 0)) < 1:
                failures.append(f"{name}: no cases (the tamper never bit)")
            if "detection_rate" in row and float(row["detection_rate"]) < 1.0:
                failures.append(
                    f"{name}: detection_rate {row['detection_rate']} < 1.0"
                )
        if name.startswith("reorg_dispute/"):
            for key in ("false_accepts", "false_rejects", "settlement_violations"):
                if float(row.get(key, 1)) != 0:
                    failures.append(f"{name}: {key} = {row.get(key)} (must be 0)")
            if float(row.get("seeds", 0)) < 20:
                failures.append(f"{name}: only {row.get('seeds')} seeds (need >= 20)")
            if float(row.get("honest_flows", 0)) <= 0:
                failures.append(f"{name}: no honest flows completed")

    dispute_rows = [n for n in rows if n.startswith("reorg_dispute/K")]
    for required in ("reorg_dispute/K1", "reorg_dispute/K4"):
        if required not in dispute_rows:
            failures.append(f"{required}: missing from {current_path}")

    flood = rows.get("mempool_flood/transfers")
    if flood is None:
        failures.append(f"mempool_flood/transfers: missing from {current_path}")
    elif float(flood.get("exactly_once", 0)) != 1:
        failures.append("mempool_flood/transfers: settlement was not exactly-once")

    wire = rows.get("wire_flood/victim_p99")
    if wire is None:
        failures.append(f"wire_flood/victim_p99: missing from {current_path}")
    elif float(wire.get("p99_within_bound", 0)) != 1:
        failures.append(
            "wire_flood/victim_p99: flooded p99 "
            f"{wire.get('flood_p99_ms')} ms exceeds bound "
            f"{wire.get('p99_bound_ms')} ms"
        )

    recovery = rows.get("recovery/total")
    if recovery is None:
        failures.append(f"recovery/total: missing from {current_path}")
    elif float(recovery.get("bit_identical", 0)) != 1:
        failures.append("recovery/total: resumed state is not bit-identical")

    if not failures:
        k1 = rows.get("reorg_dispute/K1", {})
        print(
            "  robustness OK: "
            f"{k1.get('seeds', 0):.0f} seeds, "
            f"{k1.get('reorgs', 0):.0f} reorgs absorbed (K=1), "
            f"victim p99 ratio {rows['wire_flood/victim_p99'].get('p99_ratio', 0):.2f}x"
        )
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="BENCH_*.json files to check")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="max allowed current/baseline wall-time ratio")
    parser.add_argument("--min-ms", type=float, default=5.0,
                        help="ignore rows below this wall time in both runs")
    args = parser.parse_args()

    all_failures = []
    for path in args.files:
        name = os.path.basename(path)
        baseline_path = os.path.join(args.baseline_dir, name)
        if name == "BENCH_robustness.json":
            # Structural gates only — the soak runs under sanitizers, so a
            # wall-time ratio against the release baseline is meaningless.
            print(f"{name}: checking soak invariants (no wall-time ratio)")
            failures = check_robustness_structure(path, baseline_path)
            for failure in failures:
                print(f"  REGRESSION {failure}")
            all_failures += failures
            continue
        if not os.path.exists(baseline_path):
            print(f"{name}: no baseline (skipped — seed bench/baselines/ to cover it)")
            continue
        print(f"{name}: comparing against {baseline_path}")
        failures = check_file(path, baseline_path, args)
        if name == "BENCH_micro.json":
            failures += check_trapdoor_crt_speedup(path)
            failures += check_sha256_kernel_speedup(path)
        if name == "BENCH_ablation_witness.json":
            failures += check_first_touch_seed_speedup(path)
            failures += check_in_run_warm_speedup(path)
        if name == "BENCH_throughput.json":
            failures += check_throughput_structure(path)
        if name == "BENCH_planner.json":
            failures += check_planner_structure(path)
        for failure in failures:
            print(f"  REGRESSION {failure}")
        all_failures += failures

    if all_failures:
        print(f"\n{len(all_failures)} benchmark regression(s) found")
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
