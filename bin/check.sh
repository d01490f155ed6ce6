#!/bin/sh
# Repo health check: formatting (when ocamlformat is available), full build,
# and the test suite.  Intended as the single command CI or a pre-commit
# hook runs.
set -e
cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

echo "== dune build @all"
dune build @all

# Lean public surface: every value a lib/*/*.mli exports, and every
# optional argument it declares, has a caller outside the tests, or a
# reason in bin/exports.allow.
echo "== exports (bin/exports.sh)"
bin/exports.sh

echo "== dune runtest"
dune runtest

# Same outputs: every command of bin/outputs.list (the paper's tables and
# figures from bench/main.exe, and CLI runs) must print and write the
# bytes whose digests bin/outputs.manifest records; the script names each
# command whose digest moved.
echo "== same outputs (bin/outputs.sh)"
bin/outputs.sh

# Bench smoke: the interpreter microbenchmark in quick mode doubles as a
# fast/reference differential check (it exits non-zero on divergence).
echo "== bench smoke (interp --quick)"
dune exec bench/main.exe -- interp --quick
echo "-- BENCH_interp.json"
cat BENCH_interp.json

# Perf gates, one table (`gate_specs' in bench/main.ml) for `bench diff'
# and this check.  `bench gates' runs each gated section once, in the mode
# its baseline's "quick" field records, and diffs it against the baseline
# BENCH_<section>.json; it also compares the same fresh run against the
# baseline scaled by 0.8 (an injected 25% regression), which must fail, so
# every gate is shown able to fail.  What each section pins:
# - interp: wall clock, so it is gated against the baseline the smoke above
#   just regenerated (catches a same-machine regression without tripping on
#   hardware differences); the step counts are deterministic and pinned.
# - profile: the attribution numbers are simulated time — deterministic —
#   so they are gated tightly against the committed baseline; so is the
#   host allocation of one bzip2 ASan `Profile.measure`
#   (`minor_words_per_run`, tolerance 0.001), a deterministic count that
#   covers generating, factoring and running one profiled trace, so a
#   regression of that path fails the gate.
# - nxe: runs the quick `bench nxe' section fresh (which also asserts the
#   hot path's per-sync allocation budget); the synchronized-syscall counts
#   and simulated times are pinned exactly (bit-identical schedules), the
#   wall-clock sync rate with the same tolerance as the interp gate.
# - net: re-runs the cluster traffic matrix (which itself asserts the >=5x
#   dense-workload byte reduction of selective+replication vs naive, and
#   cross-mode verdict parity) and pins the deterministic wire/time
#   numbers, and the co-simulation's host allocation per synced syscall
#   (`minor_words_per_sync`, tolerance 0.001), a deterministic count.
# - slo: re-runs the causal-tracing matrix fresh — which itself asserts
#   that attaching a sink (its recorder is the tracer) leaves the run
#   bit-identical, that the recorder stays inside the NXE's per-sync
#   allocation budget, and that the live windowed p99 agrees with the
#   post-hoc exact percentile within one log-bucket width — and pins the
#   deterministic latency quantiles, burn rates and attribution shares.
# - serve: re-runs the open-loop offered-load sweep over the NXE group pool
#   — which itself re-proves neutrality (pooled group reports bit-identical
#   to solo replays on the saturated point) — and pins request conservation
#   counts, the deterministic latency quantiles, the rejection rates and
#   the epoll-style batching factor.
echo "== perf gates (bench gates vs the BENCH_<section>.json baselines)"
dune exec bench/main.exe -- gates

# Profiler smoke: the overhead-attribution path end to end — per-phase
# decomposition sums to each variant's thread time (the report prints the
# identity check per variant) and the JSON exporter self-validates.
echo "== profile smoke (attribution --quick)"
profile_out=$(dune exec bin/bunshin_cli.exe -- profile bzip2 --quick -n 2)
echo "$profile_out"
echo "$profile_out" | grep -q "phase sum" || {
  echo "profile smoke: no phase-sum identity line in the report"; exit 1; }
echo "$profile_out" | grep -q "straggler at" || {
  echo "profile smoke: no straggler analysis in the report"; exit 1; }
profile_json=$(dune exec bin/bunshin_cli.exe -- profile bzip2 --quick -n 2 --json \
  --out _build/check_attr.json 2>&1)
echo "$profile_json" | grep -q "profile JSON: valid" || {
  echo "profile smoke: attribution JSON did not validate"; exit 1; }

# Forensics smoke: one CVE case through the NXE must file a non-empty
# incident that blames a variant and attributes the firing sanitizer
# check site — a regression anywhere on the detection -> report path
# (recorder, blame vote, check-site join) fails here.
echo "== forensics smoke (nginx CVE-2013-2028)"
forensics_out=$(dune exec bin/bunshin_cli.exe -- forensics nginx-1.4.0)
echo "$forensics_out"
echo "$forensics_out" | grep -q "blamed: variant" || {
  echo "forensics smoke: no blamed variant in the incident"; exit 1; }
echo "$forensics_out" | grep -q "check site: asan check #" || {
  echo "forensics smoke: no attributed check site in the incident"; exit 1; }

# Trace smoke: the Chrome-trace exporter must emit JSON that actually
# parses (the trace subcommand validates it and prints the marker line).
echo "== trace smoke (chrome JSON validates)"
trace_out=$(dune exec bin/bunshin_cli.exe -- trace bzip2 -n 2 \
  --out _build/check_trace.json --metrics-out _build/check_metrics.json --metrics)
echo "$trace_out" | grep -q "trace JSON: valid" || {
  echo "trace smoke: exporter emitted invalid JSON"; exit 1; }
echo "$trace_out" | grep -q "^counter " || {
  echo "trace smoke: --metrics printed no flat metrics"; exit 1; }

# Chaos smoke: a seeded fault injection under the quarantine policy must
# detect the hung variant via the heartbeat watchdog, keep the survivors
# running to completion, and file a valid fault-isolation incident.
echo "== chaos smoke (seeded stall, quarantine policy)"
chaos_out=$(dune exec bin/bunshin_cli.exe -- chaos --seed 3 -n 3 --policy quarantine)
echo "$chaos_out"
echo "$chaos_out" | grep -q "outcome: all finished" || {
  echo "chaos smoke: survivors did not finish under quarantine"; exit 1; }
echo "$chaos_out" | grep -q "QUARANTINED at" || {
  echo "chaos smoke: the stalled variant was not quarantined"; exit 1; }
chaos_json=$(dune exec bin/bunshin_cli.exe -- chaos --seed 3 -n 3 --policy quarantine --json \
  | grep '^{')
echo "$chaos_json" | grep -q '"mismatch":"fault-isolation"' || {
  echo "chaos smoke: incident JSON missing the fault-isolation classification"; exit 1; }
# Same seed, fail-stop policy: the identical injection must abort instead.
chaos_abort=$(dune exec bin/bunshin_cli.exe -- chaos --seed 3 -n 3 --policy abort)
echo "$chaos_abort" | grep -q "outcome: ABORTED blaming v1" || {
  echo "chaos smoke: fail-stop policy did not abort on the same seed"; exit 1; }

# Cluster smoke: the distributed NXE end to end — an injected compromise
# on a remote follower must be caught over the wire with a bit-identical
# verdict in all three ship modes, and a seeded remote stall under the
# quarantine policy must retire the victim while the survivors finish.
echo "== cluster smoke (remote divergence, verdict parity)"
cluster_out=$(dune exec bin/bunshin_cli.exe -- cluster bzip2 -n 2 --nodes 2 --compare --diverge 40)
echo "$cluster_out"
echo "$cluster_out" | grep -q "verdict parity:" || {
  echo "cluster smoke: ship modes disagree on the verdict"; exit 1; }
echo "== cluster smoke (remote stall, quarantine policy)"
cluster_chaos=$(dune exec bin/bunshin_cli.exe -- cluster bzip2 -n 3 --nodes 2 --chaos 3 --policy quarantine)
echo "$cluster_chaos"
echo "$cluster_chaos" | grep -q "outcome: all finished" || {
  echo "cluster smoke: survivors did not finish under quarantine"; exit 1; }
echo "$cluster_chaos" | grep -q "QUARANTINED at" || {
  echo "cluster smoke: the stalled remote variant was not quarantined"; exit 1; }
# The traced session's distributed stage must surface the per-link wire
# counters in the same metrics export as the local clock domains.
echo "== cluster smoke (trace --nodes populates net.* metrics)"
trace_net=$(dune exec bin/bunshin_cli.exe -- trace bzip2 -n 2 --nodes 2 \
  --out _build/check_trace_net.json --metrics-out _build/check_metrics_net.json --metrics)
echo "$trace_net" | grep -q "cluster stage:" || {
  echo "cluster smoke: trace --nodes ran no distributed stage"; exit 1; }
echo "$trace_net" | grep -q "net.bytes_sent" || {
  echo "cluster smoke: net.* counters missing from trace --metrics"; exit 1; }
echo "$trace_net" | grep -q "net_rtt_us" || {
  echo "cluster smoke: net_rtt_us histogram missing from the metrics export"; exit 1; }

# SLO smoke: live monitoring end to end — the windowed monitor must report
# tail percentiles and a burn rate, the span recorder must yield connected
# cross-node trees with a critical-path attribution, and the Prometheus
# exporter must carry the slo.* gauges.
echo "== slo smoke (bunshin slo, single node + 4-node cluster)"
slo_out=$(dune exec bin/bunshin_cli.exe -- slo --requests 40)
echo "$slo_out"
echo "$slo_out" | grep -q "burn rate" || {
  echo "slo smoke: no burn rate in the report"; exit 1; }
echo "$slo_out" | grep -q "straggler v" || {
  echo "slo smoke: single-node attribution named no straggler"; exit 1; }
slo_cluster=$(dune exec bin/bunshin_cli.exe -- slo --nodes 4 --requests 40 --spans)
echo "$slo_cluster" | grep -q "link " || {
  echo "slo smoke: 4-node attribution blamed no link edge"; exit 1; }
echo "$slo_cluster" | grep -q "rendezvous    node0" || {
  echo "slo smoke: no rendezvous root span in the tree dump"; exit 1; }
echo "$slo_cluster" | grep -q "net_msg       node1" || {
  echo "slo smoke: span tree crossed no node boundary"; exit 1; }
dune exec bin/bunshin_cli.exe -- slo --requests 40 --prometheus \
  | grep -q "^slo_rendezvous_p99_us" || {
  echo "slo smoke: slo.* gauges missing from the Prometheus export"; exit 1; }

# Serve smoke: the pool front-end end to end — the CLI must print a
# multi-point throughput-latency curve, demonstrate admission control
# (bounded admitted p99 while rejections absorb the overload), and prove
# neutrality (every sampled pooled report bit-identical to a solo
# replay; the command exits non-zero itself on any mismatch).
echo "== serve smoke (throughput-latency curve, admission control, neutrality)"
serve_out=$(dune exec bin/bunshin_cli.exe -- serve --requests 200)
echo "$serve_out"
echo "$serve_out" | grep -q "p999" || {
  echo "serve smoke: no throughput-latency curve header"; exit 1; }
echo "$serve_out" | grep -q "admission control:" || {
  echo "serve smoke: no admission-control analysis line"; exit 1; }
echo "$serve_out" | grep -q "rejected" || {
  echo "serve smoke: saturation produced no rejection report"; exit 1; }
echo "$serve_out" | grep -Eq "neutrality: [0-9]+/[0-9]+ pooled group reports bit-identical" || {
  echo "serve smoke: neutrality check missing or failed"; exit 1; }
# The IR path must share precompiled variants across the whole pool:
# exactly N compiles regardless of group count and request count.
serve_ir=$(dune exec bin/bunshin_cli.exe -- serve --ir -n 3 --requests 120)
echo "$serve_ir" | grep -q "precompiled variants: 3 compiles" || {
  echo "serve smoke: IR source did not reuse precompiled variants"; exit 1; }

# Usage-error smoke: out-of-range arguments that the library rejects must
# be reported as usage errors (exit status 2), never as an internal error.
echo "== usage-error smoke (bad argument matrix)"
for args in "serve --requests 0" "serve --rps 0" "serve --pool 0" "serve --batch 0" \
  "cluster --nodes 0" "chaos -n 1" "trace -n 0" "profile bzip2 -n 0" \
  "slo --requests 0" "run bzip2 -n 0" "slo --nodes 0" "trace bzip2 --nodes 0" \
  "forensics nosuch"; do
  status=0
  # $args is split into words on purpose.
  usage_out=$(dune exec bin/bunshin_cli.exe -- $args 2>&1) || status=$?
  [ "$status" -eq 2 ] || {
    echo "usage smoke: 'bunshin $args' exited $status, want 2"; exit 1; }
  if echo "$usage_out" | grep -q "internal error"; then
    echo "usage smoke: 'bunshin $args' reported an internal error"; exit 1
  fi
done

# File-error smoke: an output path that cannot be written exits 1 with
# "cannot write FILE"; a --profile that cannot be read or does not parse
# is a usage error (exit 2).  Neither may surface as an internal error.
echo "== file-error smoke (unwritable outputs, bad --profile)"
printf 'program\tbzip2\nnot a profile line\n' > _build/check_bad_profile.txt
for case in "1 profile bzip2 --out /nonexistent/x" "1 profile bzip2 --trace /nonexistent/x" \
  "1 profile bzip2 --functions --save /nonexistent/x" \
  "2 generate bzip2 --profile /nonexistent" \
  "2 generate bzip2 --profile _build/check_bad_profile.txt"; do
  want=${case%% *}
  args=${case#* }
  status=0
  # $args is split into words on purpose.
  file_out=$(dune exec bin/bunshin_cli.exe -- $args 2>&1) || status=$?
  [ "$status" -eq "$want" ] || {
    echo "file-error smoke: 'bunshin $args' exited $status, want $want"; exit 1; }
  if echo "$file_out" | grep -q "internal error"; then
    echo "file-error smoke: 'bunshin $args' reported an internal error"; exit 1
  fi
done

# Heap-limit smoke: a malloc of 10^10 slots must end the run as a
# simulated crash (exit status 3) within seconds, before any slot is
# mapped, instead of growing the process until the host runs out of memory.
echo "== heap-limit smoke (exec malloc of 10^10 slots)"
status=0
heap_out=$(timeout 10 dune exec bin/bunshin_cli.exe -- exec examples/ir/huge_malloc.bir \
  --args 10000000000 2>&1) || status=$?
echo "$heap_out"
[ "$status" -eq 3 ] || {
  echo "heap-limit smoke: exec exited $status, want 3"; exit 1; }
echo "$heap_out" | grep -q "^CRASHED" || {
  echo "heap-limit smoke: the run did not end as a crash"; exit 1; }
if echo "$heap_out" | grep -q "internal error"; then
  echo "heap-limit smoke: exec reported an internal error"; exit 1
fi

# Verifier smoke: a call that passes fewer arguments than the callee reads
# must be rejected before the run starts (exit 1, "verification failed"),
# not fail partway through it.
echo "== verifier smoke (exec of a module calling malloc with no argument)"
printf 'define @main() {\nentry:\n  %%p = call @malloc()\n  ret 0\n}\n' \
  > _build/check_malloc_no_arg.bir
status=0
verify_out=$(dune exec bin/bunshin_cli.exe -- exec _build/check_malloc_no_arg.bir 2>&1) \
  || status=$?
echo "$verify_out"
[ "$status" -eq 1 ] || {
  echo "verifier smoke: exec exited $status, want 1"; exit 1; }
echo "$verify_out" | grep -q "verification failed" || {
  echo "verifier smoke: the module was not rejected by the verifier"; exit 1; }

echo "OK"
