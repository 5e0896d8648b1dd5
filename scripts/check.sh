#!/usr/bin/env bash
# Tier-1 verification gate for the COPA workspace.
#
# The workspace is hermetic: every dependency is a `path = ...` crate
# inside this repo, so the whole gate runs with `--offline` and must
# succeed on a machine with no crates.io access at all. Before building,
# it scans the sources: no registry dependencies, no allocation in marked
# kernel regions, no unbudgeted panics, one worker pool (only
# crates/copa-sim/src/pool.rs may spawn threads), one ITS exchange loop
# (only the coordinator decodes frames off the faulty medium), SoA only
# inside copa-num (no engine kernel uses the batched SoA layer), one
# allocation path (only copa-alloc runs the per-stream allocation
# kernels) and one channel draw (only copa-channel's timedomain.rs
# transforms taps to subcarriers). This script is what CI runs; keep it
# green.
#
# Usage: scripts/check.sh [--bench-smoke] [--faults-smoke] [--resume-smoke]
#                         [--obs-smoke] [--campus-smoke] [--daemon-smoke]
#                         [--chaos-smoke] [--waveform-smoke]
#   --bench-smoke   additionally run the hotpath benchmark in --quick mode
#                   and leave its JSON lines in BENCH_hotpath.json; every
#                   warmed-path alloc report must read exactly 0, plain
#                   and COPA+ 4x2, 3x2 and 1x1 evaluations and the warmed
#                   4x2 channel draw (channel_draw_warm) included (the bench
#                   itself also hard-asserts this and the >= 540 topo/s
#                   throughput floor), and both precoding kernels
#                   (beamform_4x2, null_4x2) and the COPA+ evaluation
#                   (evaluate_4x2_copa_plus) must report a timing.
#   --faults-smoke  additionally run one degraded-suite episode offline
#                   (240 topologies, 20% ITS frame loss) and require its
#                   exact DegradationStats line (retries and CSMA
#                   fallbacks included) without any panic.
#   --resume-smoke  additionally kill a journaled suite at 50% and resume
#                   it (examples/resumable_suite.rs), requiring the resumed
#                   JSON to be byte-identical, then run the hotpath bench's
#                   zero-allocation supervision guard.
#   --obs-smoke     additionally run the observed standard suite
#                   (examples/telemetry_suite.rs), requiring the merged
#                   registry JSON and chrome-trace export to validate and
#                   its Figure 6 work counts to read exactly
#                   engine.fig6_rounds count 60 / sum 179 and
#                   engine.fig6_best_round count 60 / sum 132 (a change
#                   that moves them re-pins them and says why), then run
#                   the hotpath bench's zero-allocation telemetry guards.
#   --campus-smoke  additionally run the dense-campus suite
#                   (examples/dense_campus.rs): a 50-AP clustered run with
#                   telemetry validated and a journaled 500-AP campus
#                   byte-identical across 1/2/8 threads; then the three-AP
#                   leader rotation (examples/three_ap_cell.rs), which must
#                   exit 0 and print its aggregate line; then the hotpath
#                   bench's pair-cluster zero-allocation guard.
#   --daemon-smoke  additionally run the daemon soak
#                   (examples/daemon_soak.rs): ten simulated minutes of
#                   the event-driven coordination loop with bounded
#                   journal growth, byte-identical kill-and-resume, and
#                   zero heap allocations across warmed epochs.
#   --chaos-smoke   additionally run the chaos soak
#                   (examples/daemon_soak.rs --chaos): the same ten
#                   simulated minutes at 20% ITS frame loss with a seeded
#                   membership process — sessions degrade to CSMA and all
#                   recover, every engine run is one daemon evaluation
#                   (engine.evaluations == daemon.evals), churn tears
#                   down / cold-starts sessions,
#                   kill-and-resume stays byte-identical, and warmed
#                   epochs between exchanges still allocate nothing.
#   --waveform-smoke additionally run the waveform validation example
#                   (examples/waveform_validation.rs): the Monte-Carlo
#                   IFFT/CP/sync/Viterbi grid re-parsed from its JSON,
#                   byte-identical across thread counts, measured FER
#                   within the stated band of the analytic union bound,
#                   and zero allocations across warmed frames and across
#                   warmed 2-stream chain rounds (transmit_into ->
#                   zero_force_into -> receive_soft_into); then the
#                   bit-true link example (examples/bit_level_link.rs),
#                   whose output must match its pinned text exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
FAULTS_SMOKE=0
RESUME_SMOKE=0
OBS_SMOKE=0
CAMPUS_SMOKE=0
DAEMON_SMOKE=0
CHAOS_SMOKE=0
WAVEFORM_SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --bench-smoke) BENCH_SMOKE=1 ;;
        --faults-smoke) FAULTS_SMOKE=1 ;;
        --resume-smoke) RESUME_SMOKE=1 ;;
        --obs-smoke) OBS_SMOKE=1 ;;
        --campus-smoke) CAMPUS_SMOKE=1 ;;
        --daemon-smoke) DAEMON_SMOKE=1 ;;
        --chaos-smoke) CHAOS_SMOKE=1 ;;
        --waveform-smoke) WAVEFORM_SMOKE=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> 1/12 hermeticity: no registry dependencies in any Cargo.toml"
bad=0
while IFS= read -r toml; do
    # Reject dotted dependency tables ([dependencies.foo]) outright --
    # the workspace convention is inline `foo = { path = "..." }`.
    if grep -nE '^\[(dev-|build-)?dependencies\.' "$toml"; then
        echo "error: $toml uses a dotted dependency table (use inline path deps)" >&2
        bad=1
    fi
    # Inside [dependencies]/[dev-dependencies]/[build-dependencies]
    # sections, every entry must carry `path` or `workspace = true`
    # (and [workspace.dependencies] entries must carry `path`).
    if ! awk -v toml="$toml" '
        /^\[/ {
            dep = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/)
            next
        }
        dep && NF && $0 !~ /^[[:space:]]*#/ {
            if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/) {
                printf "error: %s:%d: non-path dependency: %s\n", toml, NR, $0 > "/dev/stderr"
                exit 1
            }
        }
    ' "$toml"; then
        bad=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*')
if [ "$bad" -ne 0 ]; then
    echo "hermeticity check FAILED: external dependencies are not allowed" >&2
    exit 1
fi
echo "    ok: all dependencies are in-repo path deps"

echo "==> 2/12 alloc-free kernel regions: no Vec::new / vec! / collect reintroduced"
# Per-subcarrier kernels are bracketed by "alloc-free: begin <name>" /
# "alloc-free: end <name>" markers. Inside those regions, constructs that
# allocate per call are banned (`.collect(` and `.collect::<..>(` included:
# they build a fresh container); scratch buffers must come from the caller
# or be built before the region.
if ! awk '
    /alloc-free: begin/ { inside = 1; region = $0 }
    inside && !/alloc-free:/ && !/^[[:space:]]*\/\// {
        if ($0 ~ /Vec::new\(|vec!|\.to_vec\(|with_capacity\(|Vec::from|CMat::zeros\(|\.clone\(\)|\.collect(\(|::)/) {
            printf "error: %s:%d: allocation in alloc-free region (%s): %s\n", \
                FILENAME, FNR, region, $0 > "/dev/stderr"
            bad = 1
        }
    }
    /alloc-free: end/ { inside = 0 }
    END { exit bad }
' $(grep -rl 'alloc-free: begin' crates --include='*.rs'); then
    echo "alloc-free gate FAILED: per-subcarrier kernels must not allocate" >&2
    exit 1
fi
echo "    ok: $(grep -rh 'alloc-free: begin' crates --include='*.rs' | wc -l | tr -d ' ') marked kernel regions are allocation-free"

echo "==> 3/12 panic gate: no new unwrap()/panic! in library, example or test code"
# Library (non-test) code must not panic on user-reachable paths: fallible
# APIs return copa_core::CopaError, internal invariants use expect /
# debug_assert! with an "// invariant:" comment. The few deliberate panic
# sites carry an "// allowlisted:" comment and a file:count budget in
# scripts/panic_allowlist.txt; this gate fails when any crates/*/src,
# examples/ or tests/ file exceeds its budget (modules after #[cfg(test)]
# are exempt, as are #[test] assert! macros -- only unwrap()/panic! count).
panic_bad=0
while IFS= read -r f; do
    n=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f" \
        | grep -c 'unwrap(\|panic!' || true)
    budget=$( (grep "^$f:" scripts/panic_allowlist.txt || true) | tail -n1 | awk -F: '{print $NF}')
    budget=${budget:-0}
    if [ "$n" -gt "$budget" ]; then
        echo "error: $f: $n unwrap()/panic! site(s) in non-test code," \
             "budget $budget (scripts/panic_allowlist.txt)" >&2
        panic_bad=1
    fi
done < <({ find crates -path '*/src/*' -name '*.rs'; find examples tests -name '*.rs'; } | sort)
while IFS= read -r entry; do
    path=${entry%:*}
    if [ ! -f "$path" ]; then
        echo "error: stale allowlist entry: $path" >&2
        panic_bad=1
    fi
done < <(grep -v '^\s*#' scripts/panic_allowlist.txt | grep -v '^\s*$')
if [ "$panic_bad" -ne 0 ]; then
    echo "panic gate FAILED: convert to CopaError or budget the site in scripts/panic_allowlist.txt" >&2
    exit 1
fi
echo "    ok: library crates stay within the panic allowlist"

echo "==> 4/12 one worker pool: thread fan-outs live only in copa-sim's pool"
# Every runner maps its work items through copa_sim::pool::map (work
# stealing, one state per worker, results in item order, panics
# re-raised). A second hand-rolled fan-out would fork that contract, so
# library sources may not spawn threads anywhere else.
pool_sites=$(grep -rnE 'thread::(scope|spawn)' crates/*/src --include='*.rs' \
    | grep -v '^crates/copa-sim/src/pool.rs:' || true)
if [ -n "$pool_sites" ]; then
    printf '%s\n' "$pool_sites" >&2
    echo "one-pool gate FAILED: map the work through copa_sim::pool::map instead" >&2
    exit 1
fi
echo "    ok: crates/copa-sim/src/pool.rs is the only thread fan-out"

echo "==> 5/12 one ITS exchange loop: only the coordinator decodes faulty deliveries"
# copa_core::Coordinator owns the ITS delivery policy (retry budget, stale
# CSI re-measurement, CRC and CSI-codec failures). A second loop that
# decodes frames off the faulty medium would drift from it, so outside
# the frame codec, the fault model and the coordinator no library source
# may name ItsFrame::decode or a Delivery variant.
its_sites=$(grep -rnE 'ItsFrame::decode|Delivery::' crates/*/src --include='*.rs' \
    | grep -vE '^crates/(copa-core/src/coordinator|copa-mac/src/frames|copa-channel/src/faults)\.rs:' || true)
if [ -n "$its_sites" ]; then
    printf '%s\n' "$its_sites" >&2
    echo "one-exchange-loop gate FAILED: run the exchange through copa_core::Coordinator instead" >&2
    exit 1
fi
echo "    ok: copa-core's coordinator is the only ITS exchange loop"

echo "==> 6/12 SoA only inside copa-num: no engine kernel batches lanes"
# Beamforming and nulling run one svd_into per subcarrier, and the MMSE
# SINR kernel factors each subcarrier's covariance on stack arrays: on
# the engine's inputs both measured faster than the batched SoA kernels
# they replaced, and neither keeps SoA scratch in every engine workspace.
# The batched SVD stays in copa-num only for perfbench's probe, so
# outside copa-num no library source may name a copa_num::batch item.
soa_sites=$(grep -rnE '\b(copa_num|num)::batch\b|\b(CBatch|SvdBatch|SvdBatchScratch|svd_batch_into)\b' \
    crates/*/src src --include='*.rs' \
    | grep -v '^crates/copa-num/src/' || true)
if [ -n "$soa_sites" ]; then
    printf '%s\n' "$soa_sites" >&2
    echo "SoA-only-in-copa-num gate FAILED: precode with svd_into per subcarrier and evaluate SINR with mmse_sinr_grid_into" >&2
    exit 1
fi
echo "    ok: only copa-num names copa_num::batch items"

echo "==> 7/12 one allocation path: the per-stream kernels run only inside copa-alloc"
# copa_alloc::concurrent::allocate_ap_into is the one per-AP stream loop:
# the sequential strategies call it with no interference and every Figure 6
# round calls it with the peer's. A second loop over the per-stream kernels
# would drift from it, so outside copa-alloc no library source may name
# equi_sinr_into or mercury_best_into.
alloc_sites=$(grep -rnE '\b(equi_sinr_into|mercury_best_into)\b' crates/*/src src --include='*.rs' \
    | grep -v '^crates/copa-alloc/src/' || true)
if [ -n "$alloc_sites" ]; then
    printf '%s\n' "$alloc_sites" >&2
    echo "one-allocation-path gate FAILED: allocate through copa_alloc::concurrent::{allocate_ap_into, allocate_concurrent_into}" >&2
    exit 1
fi
echo "    ok: only copa-alloc runs the per-stream allocation kernels"

echo "==> 8/12 one channel draw: only the time-domain channel transforms taps"
# copa_channel::TimeChannel::random_into is the one tap draw and
# TimeChannel::freq_response_into the one taps-to-subcarrier transform;
# FreqChannel::random_into is exactly those two steps, so the analytic
# and waveform paths share one channel by construction. A second FFT of
# drawn taps would fork it, so outside timedomain.rs no copa-channel
# library source may name copa_num::fft.
draw_sites=$(grep -rnE '\bcopa_num::(fft\b|\{[^}]*\bfft\b)' crates/copa-channel/src --include='*.rs' \
    | grep -v '^crates/copa-channel/src/timedomain.rs:' || true)
if [ -n "$draw_sites" ]; then
    printf '%s\n' "$draw_sites" >&2
    echo "one-channel-draw gate FAILED: draw taps with TimeChannel::random_into and transform them with freq_response_into" >&2
    exit 1
fi
echo "    ok: only copa-channel's timedomain.rs transforms taps to subcarriers"

echo "==> 9/12 cargo fmt --check"
cargo fmt --check

echo "==> 10/12 cargo build --release --offline (workspace, benches included)"
cargo build --release --offline --workspace --benches

echo "==> 11/12 cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

echo "==> 12/12 deprecation gate: no in-repo callers of deprecated APIs"
# Deprecated shims exist only for downstream compatibility (none remain
# today); new in-repo code must use the replacements. A separate target dir keeps -D deprecated from thrashing
# the main build cache. #[allow(deprecated)] still works for the shims'
# own unit tests.
RUSTFLAGS="-D deprecated" CARGO_TARGET_DIR=target/deprecated \
    cargo check -q --offline --workspace --all-targets || {
    echo "deprecation gate FAILED: migrate off deprecated APIs (or #[allow(deprecated)] inside the shim's own tests)" >&2
    exit 1
}
echo "    ok: no deprecated-API uses outside allowed shims"

if [ "$BENCH_SMOKE" -eq 1 ]; then
    echo "==> bench smoke: hotpath --quick (JSON -> BENCH_hotpath.json)"
    cargo bench --offline -p copa-bench --bench hotpath -- --quick | tee BENCH_hotpath.json
    grep -q '"name"' BENCH_hotpath.json || {
        echo "bench smoke FAILED: no JSON lines in BENCH_hotpath.json" >&2
        exit 1
    }
    # Hard alloc gate: every warmed-path alloc report must read exactly 0.
    # (The bench asserts this too; re-checking the emitted JSON keeps the
    # gate honest even if the bench's own asserts are ever refactored.)
    for guard in evaluate_4x2_warm_ws evaluate_4x2_copa_plus_warm_ws evaluate_1x1_warm_ws \
                 evaluate_1x1_copa_plus_warm_ws evaluate_3x2_warm_ws \
                 evaluate_3x2_copa_plus_warm_ws evaluate_4x2_guarded evaluate_4x2_noop_obs \
                 evaluate_4x2_live_obs evaluate_pair_cluster_warm daemon_warm_epochs \
                 channel_draw_warm; do
        grep -q "\"name\":\"$guard\",\"allocs\":0}" BENCH_hotpath.json || {
            echo "bench smoke FAILED: warmed path '$guard' is not allocation-free" >&2
            exit 1
        }
    done
    for kernel in beamform_4x2 null_4x2 evaluate_4x2_copa_plus; do
        grep -q "\"type\":\"bench\",\"name\":\"$kernel\"" BENCH_hotpath.json || {
            echo "bench smoke FAILED: timing line '$kernel' missing" >&2
            exit 1
        }
    done
    grep -q '"type":"throughput","name":"suite_mixed_12"' BENCH_hotpath.json || {
        echo "bench smoke FAILED: suite throughput line missing" >&2
        exit 1
    }
    grep -q '"type":"throughput","name":"daemon_epochs"' BENCH_hotpath.json || {
        echo "bench smoke FAILED: daemon epoch-throughput line missing" >&2
        exit 1
    }
fi

if [ "$RESUME_SMOKE" -eq 1 ]; then
    echo "==> resume smoke: journaled suite killed at 50%, resumed, byte-diffed"
    out=$(cargo run --release --offline --example resumable_suite)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: kill-and-resume is byte-identical' || {
        echo "resume smoke FAILED: resumed run diverged from the reference" >&2
        exit 1
    }
    echo "==> resume smoke: supervision wrapper zero-allocation guard"
    guard=$(cargo bench --offline -p copa-bench --bench hotpath -- --quick)
    printf '%s\n' "$guard" | grep '^alloc '
    printf '%s\n' "$guard" | grep -q '"name":"evaluate_4x2_guarded"' || {
        echo "resume smoke FAILED: guarded-evaluation alloc report missing" >&2
        exit 1
    }
fi

if [ "$OBS_SMOKE" -eq 1 ]; then
    echo "==> obs smoke: observed standard suite, registry + trace validated"
    out=$(cargo run --release --offline --example telemetry_suite)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: telemetry export validated' || {
        echo "obs smoke FAILED: telemetry export did not validate" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '"suite.completed":30' || {
        echo "obs smoke FAILED: supervisor counters missing from registry JSON" >&2
        exit 1
    }
    for pin in '"engine.fig6_rounds":{"count":60,"sum":179' \
        '"engine.fig6_best_round":{"count":60,"sum":132'; do
        printf '%s\n' "$out" | grep -qF "$pin" || {
            echo "obs smoke FAILED: Figure 6 work count moved (want $pin)" >&2
            exit 1
        }
    done
    echo "==> obs smoke: telemetry zero-allocation guards"
    guard=$(cargo bench --offline -p copa-bench --bench hotpath -- --quick)
    printf '%s\n' "$guard" | grep '^alloc '
    printf '%s\n' "$guard" | grep -q '"name":"evaluate_4x2_noop_obs"' || {
        echo "obs smoke FAILED: noop-sink alloc report missing" >&2
        exit 1
    }
    printf '%s\n' "$guard" | grep -q '"name":"evaluate_4x2_live_obs"' || {
        echo "obs smoke FAILED: live-sink alloc report missing" >&2
        exit 1
    }
fi

if [ "$CAMPUS_SMOKE" -eq 1 ]; then
    echo "==> campus smoke: 50-AP clustered suite + journaled 500-AP thread invariance"
    out=$(cargo run --release --offline --example dense_campus)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: dense campus smoke validated' || {
        echo "campus smoke FAILED: 50-AP clustered run did not validate" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: 500-AP campus byte-identical' || {
        echo "campus smoke FAILED: 500-AP report diverged across thread counts" >&2
        exit 1
    }
    echo "==> campus smoke: three-AP cell leader rotation"
    out=$(cargo run --release --offline --example three_ap_cell)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^  aggregate: ' || {
        echo "campus smoke FAILED: three_ap_cell printed no aggregate line" >&2
        exit 1
    }
    echo "==> campus smoke: pair-cluster zero-allocation guard"
    guard=$(cargo bench --offline -p copa-bench --bench hotpath -- --quick)
    printf '%s\n' "$guard" | grep '^alloc '
    printf '%s\n' "$guard" | grep -q '"name":"evaluate_pair_cluster_warm"' || {
        echo "campus smoke FAILED: pair-cluster alloc report missing" >&2
        exit 1
    }
fi

if [ "$DAEMON_SMOKE" -eq 1 ]; then
    echo "==> daemon smoke: ten simulated minutes of the coordination daemon"
    out=$(cargo run --release --offline --example daemon_soak)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: daemon soak journal growth bounded' || {
        echo "daemon smoke FAILED: journal grew past its per-checkpoint budget" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: daemon kill-and-resume byte-identical' || {
        echo "daemon smoke FAILED: resumed daemon diverged from the reference" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: warmed daemon epochs allocation-free' || {
        echo "daemon smoke FAILED: warmed epochs allocated" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: daemon soak validated end to end' || {
        echo "daemon smoke FAILED: soak did not validate" >&2
        exit 1
    }
fi

if [ "$CHAOS_SMOKE" -eq 1 ]; then
    echo "==> chaos smoke: ten lossy, churning minutes of the coordination daemon"
    out=$(cargo run --release --offline --example daemon_soak -- --chaos)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: chaos degradations observed and recovered' || {
        echo "chaos smoke FAILED: no degradation/recovery cycle observed" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: every daemon evaluation observed once' || {
        echo "chaos smoke FAILED: engine evaluations and daemon evaluations disagree" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: chaos churn events exercised' || {
        echo "chaos smoke FAILED: the membership process did not fire" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: chaos kill-and-resume byte-identical' || {
        echo "chaos smoke FAILED: resumed chaos daemon diverged from the reference" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: warmed chaos epochs allocation-free' || {
        echo "chaos smoke FAILED: warmed chaos epochs allocated" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: daemon chaos soak validated end to end' || {
        echo "chaos smoke FAILED: chaos soak did not validate" >&2
        exit 1
    }
fi

if [ "$WAVEFORM_SMOKE" -eq 1 ]; then
    echo "==> waveform smoke: Monte-Carlo waveform FER vs the analytic model"
    out=$(cargo run --release --offline --example waveform_validation)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: waveform grid JSON re-parses' || {
        echo "waveform smoke FAILED: grid JSON did not re-parse" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: waveform grid byte-identical across thread counts' || {
        echo "waveform smoke FAILED: grid diverged across thread counts" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: waveform FER tracks the analytic union bound' || {
        echo "waveform smoke FAILED: measured FER left the analytic band" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: warmed waveform frames allocation-free' || {
        echo "waveform smoke FAILED: warmed frames allocated" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: warmed 2-stream chain rounds allocation-free' || {
        echo "waveform smoke FAILED: warmed 2-stream chain rounds allocated" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: waveform validation smoke passed' || {
        echo "waveform smoke FAILED: smoke did not validate" >&2
        exit 1
    }
    echo "==> waveform smoke: bit-true link example, exact output"
    out=$(cargo run --release --offline --example bit_level_link)
    printf '%s\n' "$out"
    # Seeded end to end (payload, channel, noise, Monte-Carlo points), so
    # any change to a bit of the chain or the validator shows here.
    expected=$(cat <<'EOF'
Transmitting 1242 payload bits at MCS4 (16-QAM 3/4, 39.0 Mbps)
  -> 8 OFDM symbols x 52 subcarriers of Gray-mapped 16-QAM symbols
  <- decoded with 156 bit errors out of 1242 at 18 dB mean SNR
  analytic: raw BER 2.80e-2 -> coded BER 3.91e-1 (union bound)

Monte-Carlo (40 frames per point, fresh channel each):
mcs                           SNR dB  analytic BER       sim BER  sim FER
MCS1 (QPSK 1/2, 13.0 Mbps)       6.0       2.72e-1       9.21e-2     0.47
MCS4 (16-QAM 3/4, 39.0 Mbps)    14.0       4.04e-1       1.97e-1     0.82
MCS7 (64-QAM 5/6, 65.0 Mbps)    24.0       3.67e-1       1.16e-1     0.80
EOF
)
    [ "$out" = "$expected" ] || {
        echo "waveform smoke FAILED: bit_level_link output differs from the pinned text" >&2
        exit 1
    }
fi

if [ "$FAULTS_SMOKE" -eq 1 ]; then
    echo "==> faults smoke: 240-topology degraded suite at 20% frame loss"
    out=$(cargo run --release --offline --example degraded_suite)
    printf '%s\n' "$out"
    # The loss-only plan draws one loss per frame attempt on the
    # coordinator's fault stream, so the accounting is exact.
    expected='{"exchanges":240,"retried":111,"retries":157,"failed":14,"csma_fallbacks":14}'
    printf '%s\n' "$out" | grep -qxF "$expected" || {
        echo "faults smoke FAILED: expected the stats line $expected" >&2
        exit 1
    }
fi

echo "==> all checks passed"
