#!/usr/bin/env bash
# Trace-overhead smoke check.
#
# Runs the whole-simulation bench groups with tracing off and on N times,
# takes the per-bench minimum (the noise-robust estimator), and then:
#   1. asserts the trace-OFF runs have not regressed more than
#      TRACE_OVERHEAD_TOL (default 2%) plus the machine's demonstrated
#      same-run noise floor against the committed "after" baseline in
#      BENCH_core.json — the disabled observability path must stay
#      branch-only;
#   2. reports the trace-ON overhead relative to the same-machine
#      trace-OFF numbers (informational). `2PL-full` runs through
#      `run_traced`, so its ratio includes growing the event log and
#      sealing it into the returned `TraceLog`, not only recording.
#
# Machine-speed drift between the baseline machine and this one is
# normalized out with the median trace-off ratio, so the check catches a
# regression localized to any simulator path (what a leaky trace gate
# would cause). A perfectly *uniform* slowdown is indistinguishable from
# machine drift by construction; verifying that requires a same-machine
# A/B of the two trees (interleave the old and new bench binaries and
# compare minima).
#
# Usage:
#   scripts/trace_overhead.sh
#
# Environment:
#   TRACE_OVERHEAD_RUNS  bench repetitions to take the minimum over (3)
#   TRACE_OVERHEAD_TOL   allowed per-bench trace-off regression (0.02)
set -euo pipefail
cd "$(dirname "$0")/.."

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

runs="${TRACE_OVERHEAD_RUNS:-3}"
for _ in $(seq "$runs"); do
    CRITERION_JSON="$raw" cargo bench --offline -p bench -- \
        "simulation_240_commits" >&2
done

python3 - "$raw" <<'EOF'
import json, os, sys

tol = float(os.environ.get("TRACE_OVERHEAD_TOL", "0.02"))

# Minimum over repetitions: the least-interfered-with measurement.
measured = {}
reps = {}
for line in open(sys.argv[1]):
    line = line.strip()
    if line:
        rec = json.loads(line)
        ns = rec["ns_per_iter"]
        name = rec["name"]
        measured[name] = min(ns, measured.get(name, ns))
        reps.setdefault(name, []).append(ns)

# The machine's demonstrated noise floor: median over benches of the
# rep-to-rep spread within THIS run. On a quiet machine this is ~1%, and
# the effective bound stays near TRACE_OVERHEAD_TOL; on a noisy shared box
# the spread is visible in the data itself and the bound widens to match,
# so the gate flags real regressions without flaking on scheduler noise.
spreads = sorted(
    max(v) / min(v) - 1.0 for name, v in reps.items() if len(v) > 1
)
noise = spreads[len(spreads) // 2] if spreads else 0.0

baseline = json.load(open("BENCH_core.json"))["after"]

off = {
    name: measured[name] / baseline[name]
    for name in measured
    if name.startswith("simulation_240_commits/") and name in baseline
}
if not off:
    print("trace_overhead: no trace-off benches matched the baseline", file=sys.stderr)
    sys.exit(1)
ratios = sorted(off.values())
scale = ratios[len(ratios) // 2]
bound = tol + noise

failed = False
print(
    f"trace-off vs BENCH_core.json after "
    f"(machine scale {scale:.3f}, noise floor {noise:.1%}, bound {bound:.1%}):"
)
for name, r in sorted(off.items()):
    rel = r / scale - 1.0
    flag = ""
    if rel > bound:
        flag = f"  REGRESSION > {bound:.1%}"
        failed = True
    print(f"  {name:42s} {rel:+7.2%}{flag}")

print("trace-on overhead vs trace-off (this machine):")
base_2pl = measured.get("simulation_240_commits/2PL")
for name, ns in sorted(measured.items()):
    if name.startswith("simulation_240_commits_traced/") and base_2pl:
        print(f"  {name:42s} {ns / base_2pl - 1.0:+7.2%}")

if failed:
    print(f"FAIL: trace-off regression exceeds {bound:.1%}", file=sys.stderr)
    sys.exit(1)
print("OK: trace-off within tolerance")
EOF
