#!/usr/bin/env python3
"""Self-checks of the benchmark itself (see perfbench/README.md).

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 6]

For every workload it makes three traced runs through run.py (each a
fresh untraced plus traced process): two with --seed and one with
--seed + 1. It checks that

  * every operation passed its correctness gate;
  * the deterministic counts (tokens, witnesses, proof-cache hits and
    misses, reply bytes, gas) of the two same-seed runs agree exactly;
  * the second seed reports the same metric names;
  * the traced run attributes >= 90% of op wall time to named layers and
    drops no spans;
  * plan_spill's proof-cache hit ratio agrees within 5 points between the
    first and second half of the timed window;
  * the layers separate as intended: witnesses are the largest layer on
    plan_spill and under 5% of op time on plan_hot, and the chain and
    owner layers are non-zero only on paid_mixed.

Exits non-zero and names the failed check otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the workload and metric tables)

# Layers whose spans or histograms do not contain acc.witness_ms.
LEAF_LAYERS = ["user.tokens_ms", "user.decrypt_ms", "net.overhead_ms",
               "cloud.fetch_ms", "h2p.ms", "verify.ms", "owner.insert_ms",
               "chain.seal_ms", "chain.attach_counters_ms"]
PAID_ONLY = ["owner.insert_ms", "owner.primes_per_insert", "chain.seal_ms",
             "chain.attach_counters_ms", "chain.contract_gas_per_settle",
             "chain.gas_per_insert"]


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d: run failed\n%s" % (workload, seed, proc.stdout))
    counts = [l for l in lines if l.startswith("counts: ")][-1]
    halves = [l for l in lines if l.startswith("stationarity: ")][-1].split()
    result = json.loads(lines[-1])
    untraced = json.loads([l for l in lines if l.startswith("{")][0])
    return {
        "counts": json.loads(counts[len("counts: "):]),
        "halves": (float(halves[3]), float(halves[5])),
        "result": result,
        "names": (sorted(untraced["metrics"]), sorted(result["metrics"])),
        "m": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=6)
    args = parser.parse_args()

    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    expected_names = (sorted(m["name"] for m in run.END_TO_END),
                      sorted(n for n, _, _ in run.PER_LAYER))
    for w in run.ALL_WORKLOADS:
        a = traced_run(w, args.seed, args.seconds)
        b = traced_run(w, args.seed, args.seconds)
        c = traced_run(w, args.seed + 1, args.seconds)
        m = a["m"]
        print("%s counts: %s" % (w, json.dumps(a["counts"])))
        for r in (a, b, c):
            check(r["result"]["correct"] and r["result"]["failed"] == 0,
                  "%s: every operation correct" % w)
        check(a["counts"] == b["counts"],
              "%s: same-seed deterministic counts repeat exactly" % w)
        check(a["names"] == c["names"] == expected_names,
              "%s: second seed reports the same metric names" % w)
        check(m["budget.unattributed_frac"] <= 0.10,
              "%s: layers cover %.1f%% of op wall time (>= 90%%)"
              % (w, 100 * (1 - m["budget.unattributed_frac"])))
        check(m["budget.dropped_spans"] == 0, "%s: no dropped spans" % w)
        check(m["cloud.search_plan_ms"] <= m["net.server_handle_ms"] * 1.01 and
              m["net.server_handle_ms"] <= m["net.rtt_ms"],
              "%s: search_plan nests in server handle nests in rtt" % w)
        if w == "plan_spill":
            first, second = a["halves"]
            check(abs(first - second) <= 0.05,
                  "%s: proof-cache hit ratio stationary (%.3f vs %.3f)"
                  % (w, first, second))
            largest = max(LEAF_LAYERS, key=lambda k: m[k])
            check(m["acc.witness_ms"] > m[largest],
                  "%s: acc.witness_ms %.2f is the largest layer (next %s %.2f)"
                  % (w, m["acc.witness_ms"], largest, m[largest]))
        if w == "plan_hot":
            check(m["acc.witness_ms"] < 0.05 * m["budget.op_ms"],
                  "%s: acc.witness_ms %.3f under 5%% of op time %.2f"
                  % (w, m["acc.witness_ms"], m["budget.op_ms"]))
        paid = w == "paid_mixed"
        check(all((m[k] > 0) == paid for k in PAID_ONLY),
              "%s: chain/owner layers %s" % (w, "non-zero" if paid else "zero"))

    print("\n%d failed checks" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
