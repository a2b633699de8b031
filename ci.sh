#!/bin/sh
# The tier-1 gate, runnable with no network access and no registry
# cache: hermetic build, full test suite, and a smoke pass of one
# figure bench (every measurement runs once, untimed).
set -eux

cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Lint gate: the whole workspace, tests and benches included, is
# clippy-clean.
cargo clippy --offline --workspace --all-targets -- -D warnings

GMT_TESTKIT_BENCH_SMOKE=1 cargo bench --offline -p gmt-bench --bench fig8_speedup

# Parallel experiment-runner smoke: the full quick figure set on the
# worker pool, plus a GMT_JOBS=1 serial cross-check of one figure —
# the parallel and serial paths must produce byte-identical output.
GMT_JOBS=8 ./target/release/repro --quick --fig all > target/ci_repro_parallel.txt
GMT_JOBS=8 ./target/release/repro --quick --fig 7 > target/ci_fig7_parallel.txt
GMT_JOBS=1 ./target/release/repro --quick --fig 7 > target/ci_fig7_serial.txt
cmp target/ci_fig7_parallel.txt target/ci_fig7_serial.txt

# Whole-figure golden: the quick Figure 1/6/7/8 output — dynamic
# counts and simulated cycles alike — must match the pinned run byte
# for byte. Figures 1 and 7 here read the counts off the timed
# matrix's simulations, so this also pins them to the interpreter's.
cmp target/ci_repro_parallel.txt tests/golden/fig_all_quick.txt

# Engine-counts golden: every deterministic field of the quick
# `--metrics` records — instruction and cycle counts, per-reason stall
# counters, engine steps, skipped cycles and arbitration probes/hits —
# must match the pinned run. Host-time (`*_ns`) fields are stripped.
GMT_JOBS=8 ./target/release/repro --metrics --quick > target/ci_metrics_raw.txt
grep '^{' target/ci_metrics_raw.txt | sed -E 's/"[a-z_]+_ns":[0-9]+,//g' \
    > target/ci_metrics_counts.txt
cmp target/ci_metrics_counts.txt tests/golden/metrics_counts_quick.txt

# Decoded-engine gate: the flat-stream executors must be observably
# identical to the ID-walking reference executors, the throughput
# bench must at least run (including the queue-bound skip/noskip
# group), and the quick Figure 7 must match the pinned golden output
# byte for byte.
cargo test -q --offline -p gmt-integration-tests --test decoded_equivalence
GMT_TESTKIT_BENCH_SMOKE=1 cargo bench --offline -p gmt-bench --bench exec_throughput
cmp target/ci_fig7_parallel.txt tests/golden/fig7_quick.txt

# Stall fast-forward gate: the event-driven engine (GMT_SIM_SKIP=1,
# the default) and the per-cycle engine (GMT_SIM_SKIP=0) must both
# reproduce the pinned Figure 7 golden — the skip is a pure wall-clock
# optimization with zero observable effect.
GMT_JOBS=8 GMT_SIM_SKIP=1 ./target/release/repro --quick --fig 7 > target/ci_fig7_skip.txt
cmp target/ci_fig7_skip.txt tests/golden/fig7_quick.txt
GMT_JOBS=8 GMT_SIM_SKIP=0 ./target/release/repro --quick --fig 7 > target/ci_fig7_noskip.txt
cmp target/ci_fig7_noskip.txt tests/golden/fig7_quick.txt

# Tracing smoke: one traced cell must produce the pinned attribution
# and per-queue tables, and Chrome-trace JSON that parses and carries
# the expected schema (core spans on pid 1, queue counters on pid 2,
# a cycle count). Then re-run the no-sink figure path and re-diff the
# golden — attaching a sink must never perturb the untraced numbers.
./target/release/repro --trace target/ci_trace.json --bench adpcmdec \
    --scheduler dswp --quick > target/ci_trace_summary_raw.txt
sed 's|target/ci_trace.json|TRACE_PATH|' target/ci_trace_summary_raw.txt \
    > target/ci_trace_summary.txt
cmp target/ci_trace_summary.txt tests/golden/trace_adpcmdec_dswp_quick.txt
python3 - target/ci_trace.json <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
ev = t["traceEvents"]
assert t["otherData"]["cycles"] > 0, "cycle count recorded"
assert any(e["ph"] == "X" and e["pid"] == 1 for e in ev), "core spans"
assert any(e["ph"] == "C" and e["pid"] == 2 for e in ev), "queue counters"
names = {e["args"]["name"] for e in ev if e["ph"] == "M" and e["name"] == "process_name"}
assert names == {"cores", "sa queues"}, names
EOF
GMT_JOBS=8 ./target/release/repro --quick --fig 7 > target/ci_fig7_posttrace.txt
cmp target/ci_fig7_posttrace.txt tests/golden/fig7_quick.txt

# Queue-protocol gate: the static validator must pass the full kernel ×
# scheduler × ±COCO matrix at each cell's *allocated* per-queue depths
# (profile-weighted: hot loop-carried queues get the scheduler's depth
# — GREMIO 1, DSWP 32 — cold control queues get 1), and the
# seeded-mutation suite must show it still catches every planted defect
# class (swapped endpoints, off-by-one queue, dropped control
# duplication, stale placement, uncovered memory dependence,
# cross-block circular waits, plan↔code position swaps, and deadlocks
# only visible at the allocated depth vector). Then re-run the quick
# Figure 7 and re-diff the golden — verification must never perturb
# the measured numbers.
GMT_JOBS=8 ./target/release/repro --verify-mt
cargo test -q --offline -p gmt-core --test mtverify_mutations
GMT_JOBS=8 ./target/release/repro --quick --fig 7 > target/ci_fig7_postverify.txt
cmp target/ci_fig7_postverify.txt tests/golden/fig7_quick.txt

# Panic-site budget: untrusted inputs must surface as typed errors
# (SchedError/MtcgError/PdgError/ExecError), never a panic. The pinned
# counts cover the remaining internal-invariant assertions only; a new
# unwrap/expect/panic/assert in non-test code of a covered crate fails
# the gate. If you removed one, re-pin that budget downward. The
# gmt-pdg/gmt-ir ceiling was lowered 33 -> 30 when the fuzzer's panic
# burn-down converted the reachable sites (unterminated blocks,
# oversized memory layouts, out-of-range queue and points-to indices)
# to typed errors. gmt-sim, gmt-core and gmt-graph are pinned at their
# counts when they joined the table; gmt-harness and gmt-fuzz joined
# at 0.
python3 - <<'EOF'
import re, pathlib, sys
pat = re.compile(
    r'\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|\bassert!\(|\bassert_eq!|\bassert_ne!')
def count(roots):
    total = 0
    for root in roots:
        for p in sorted(pathlib.Path(root).rglob("*.rs")):
            body = p.read_text().split("#[cfg(test)]")[0]
            total += len(pat.findall(body))
    return total
BUDGETS = {
    "gmt-mtcg/gmt-sched": (("crates/mtcg/src", "crates/sched/src"), 16),
    "gmt-pdg/gmt-ir": (("crates/pdg/src", "crates/ir/src"), 30),
    "gmt-sim": (("crates/sim/src",), 5),
    "gmt-core": (("crates/core/src",), 11),
    "gmt-graph": (("crates/graph/src",), 12),
    "gmt-harness": (("crates/harness/src",), 0),
    "gmt-fuzz": (("crates/fuzz/src",), 0),
}
for name, (roots, budget) in BUDGETS.items():
    total = count(roots)
    if total > budget:
        sys.exit(f"panic-site budget exceeded in {name}: {total} > {budget}")
    print(f"panic-site budget ok in {name}: {total} <= {budget}")
EOF

# Differential-fuzzer smoke: a deterministic-seed run of the pipeline
# fuzzer (corpus replay + fresh cases; offline, well under 60 s). Any
# finding exits nonzero; its seed is printed and persisted, and
# `GMT_TESTKIT_SEED=<seed> cargo run --release -p gmt-fuzz --bin fuzz`
# replays exactly that case (the same replay command works for every
# entry in tests/fuzz_corpus/corpus.txt). Then re-run the quick
# Figure 7 and re-diff the golden — fuzzing must never perturb the
# measured numbers.
./target/release/fuzz --cases 500 --quiet
GMT_JOBS=8 ./target/release/repro --quick --fig 7 > target/ci_fig7_postfuzz.txt
cmp target/ci_fig7_postfuzz.txt tests/golden/fig7_quick.txt

# Critical-path explain gate: the static-estimate ↔ traced-measurement
# join must reproduce its pinned human report byte for byte, the
# machine output must carry the full schema with the edge-kind
# decomposition summing exactly to the cycle count (the conservation
# law of DESIGN.md invariant 9), and the whole kernel × scheduler
# matrix must explain cleanly (every cell passes both the attribution
# and critical-path checks). Then re-run the quick Figure 7 and
# re-diff the golden — the explain layer must never perturb the
# measured numbers.
./target/release/repro --explain adpcmdec --scheduler dswp --quick \
    > target/ci_explain.txt
cmp target/ci_explain.txt tests/golden/explain_adpcmdec_dswp_quick.txt
./target/release/repro --explain all --scheduler both --quick --json \
    > target/ci_explain_all.json
python3 - target/ci_explain_all.json <<'EOF'
import json, sys
CP_KINDS = ("in_order", "dataflow", "load", "queue_data", "queue_space",
            "sa_port", "structural", "load_limit", "refill", "retire")
VERDICTS = {"recurrence-bound", "queue-bound", "mispredict-bound", "balance-bound"}
rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(rows) == 22, f"11 kernels x 2 schedulers, got {len(rows)}"
for d in rows:
    for key in ("benchmark", "scheduler", "variant", "cycles", "verdict",
                "dropped_events", "est_bottleneck", "est_total",
                "max_share_pct", "cut_register", "cut_memory", "cut_control",
                "sync_points", "cp_total", "cp_edges", "cp_crossings",
                "threads", "queues"):
        assert key in d, f"{d.get('benchmark')}: missing {key}"
    assert d["verdict"] in VERDICTS, d["verdict"]
    assert d["cp_total"] == d["cycles"], f"{d['benchmark']}: path != cycles"
    assert sum(d[f"cp_{k}"] for k in CP_KINDS) == d["cp_total"], \
        f"{d['benchmark']}: kinds don't sum"
    for t in d["threads"]:
        assert t["compute"] + t["stall"] + t["idle"] == d["cycles"], \
            f"{d['benchmark']}: thread decomposition"
print(f"explain schema ok: {len(rows)} cells, all conserving")
EOF
GMT_JOBS=8 ./target/release/repro --quick --fig 7 > target/ci_fig7_postexplain.txt
cmp target/ci_fig7_postexplain.txt tests/golden/fig7_quick.txt
