#!/usr/bin/env bash
# Times every bench_* driver in the build tree and writes the results
# to a JSON array of {bench, seconds, peak_rss_kib, threads} records.
# Wall time and peak RSS come from a python3 getrusage wrapper (the
# container has no /usr/bin/time); without python3 the RSS is
# recorded as 0 and timing falls back to date +%s.%N.
#
# Usage: scripts/run_benches.sh [options] [build_dir] [output.json]
# (default output: <build_dir>/bench.json)
#
# Options:
#   --filter <regex>  only run benches whose name matches the (grep -E)
#                     regex, e.g. --filter 'trng|nist'
#   --out <file>      output JSON path (same as the second positional
#                     argument; the flag wins if both are given)
#   --router-ab <N>   run N interleaved direct-vs-router pairs of the
#                     serving A/B per payload point (default 5; 0
#                     disables). The routed arm puts a one-backend
#                     fracdram_router between loadgen and the daemon;
#                     the direct arm talks to the daemon itself. Both
#                     arms use window 16 and are measured at two
#                     payload points: 1 KiB entropy reads (the
#                     headline "median_overhead_pct" - the serving
#                     workload) and 32 B frames (recorded as
#                     "small_frame_overhead_pct" - the frame-stress /
#                     CPU-share point; see the A/B block comment).
#
# The thread count recorded is what the parallel engine resolves:
# FRACDRAM_THREADS if set, otherwise the machine's hardware
# concurrency. Set FRACDRAM_THREADS=1 to time the serial baseline.
#
# bench_timing and bench_kernels are skipped in the fixed-work loop:
# they are google-benchmark microbenchmark harnesses with their own
# timing loops, not fixed-work drivers. bench_kernels is instead
# driven explicitly for the "bench_simd" record: the resolved SIMD
# dispatch tier plus per-kernel ns/elem at every tier this machine
# can force (FRACDRAM_ISA=scalar/avx2), so a record shows what the
# vector paths actually buy on the machine that produced it.
#
# Serving throughput is measured by perfbench (BENCHMARK.json); this
# script keeps only the router A/B below.
#
# Any bench that exits non-zero makes this script exit non-zero after
# writing the JSON, so CI cannot mistake a partial record for a
# healthy run.

set -euo pipefail

filter=""
out_flag=""
router_ab=5
positional=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --filter)
            [[ $# -ge 2 ]] || { echo "error: --filter needs a regex" >&2; exit 1; }
            filter="$2"
            shift 2
            ;;
        --out)
            [[ $# -ge 2 ]] || { echo "error: --out needs a path" >&2; exit 1; }
            out_flag="$2"
            shift 2
            ;;
        --router-ab)
            [[ $# -ge 2 ]] || { echo "error: --router-ab needs a count" >&2; exit 1; }
            router_ab="$2"
            shift 2
            ;;
        --help|-h)
            sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        --*)
            echo "error: unknown option $1" >&2
            exit 1
            ;;
        *)
            positional+=("$1")
            shift
            ;;
    esac
done

build_dir="${positional[0]:-build}"
out="${out_flag:-${positional[1]:-${build_dir}/bench.json}}"
bench_dir="${build_dir}/bench"

if [[ ! -d "${bench_dir}" ]]; then
    echo "error: ${bench_dir} not found (build the project first)" >&2
    exit 1
fi

threads="${FRACDRAM_THREADS:-$(nproc 2>/dev/null || echo 1)}"

have_python=0
command -v python3 > /dev/null 2>&1 && have_python=1

# Runs "$@" with stdout discarded and prints "<wall_s> <peak_rss_kib>
# <exit_code>". RUSAGE_CHILDREN's ru_maxrss is the max over all
# children, so each bench runs in its own wrapper process.
measure() {
    python3 - "$@" <<'PY'
import resource, subprocess, sys, time
start = time.monotonic()
rc = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)
wall = time.monotonic() - start
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"{wall:.3f} {rss} {rc}")
PY
}

# Quick-mode flags keep total wall time reasonable; the relative
# serial-vs-parallel ratio is what matters, not absolute run length.
declare -A extra_args=(
    [bench_fig9_fmaj_coverage]="--quick"
)

records=()
failures=0
for bin in "${bench_dir}"/bench_*; do
    [[ -x "${bin}" ]] || continue
    name="$(basename "${bin}")"
    [[ "${name}" == "bench_timing" || "${name}" == "bench_kernels" ]] \
        && continue
    if [[ -n "${filter}" ]] && ! grep -qE "${filter}" <<< "${name}"; then
        continue
    fi

    args="${extra_args[${name}]:-}"
    echo "timing ${name} ${args} (threads=${threads})" >&2

    rc=0
    if [[ "${have_python}" -eq 1 ]]; then
        # shellcheck disable=SC2086
        read -r seconds rss_kib rc < <(measure "${bin}" ${args})
    else
        start=$(date +%s.%N)
        # shellcheck disable=SC2086
        "${bin}" ${args} > /dev/null || rc=$?
        end=$(date +%s.%N)
        seconds=$(awk -v a="${start}" -v b="${end}" \
            'BEGIN { printf "%.3f", b - a }')
        rss_kib=0
    fi
    if [[ "${rc}" -ne 0 ]]; then
        echo "error: ${name} exited with ${rc}" >&2
        failures=$((failures + 1))
    fi

    records+=("  {\"bench\": \"${name}\", \"seconds\": ${seconds}, \"peak_rss_kib\": ${rss_kib}, \"threads\": ${threads}, \"exit_code\": ${rc}}")
done

serve_bin="${build_dir}/tools/fracdram_serve"
loadgen_bin="${build_dir}/tools/fracdram_loadgen"
router_bin="${build_dir}/tools/fracdram_router"

# SIMD dispatch record: what the dispatcher resolves on this machine
# (plus the raw cpuid feature bits) and per-kernel ns/elem at every
# tier the machine can actually force. A forced tier that the CPU or
# build cannot honour resolves to something lower; those are skipped,
# so the record only ever contains genuinely-run tiers.
kern_bin="${bench_dir}/bench_kernels"
if [[ -x "${kern_bin}" && "${have_python}" -eq 1 ]] &&
    { [[ -z "${filter}" ]] || grep -qE "${filter}" <<< "bench_simd"; }; then
    echo "timing bench_simd (per-ISA kernel sweep)" >&2
    isa_info="$("${kern_bin}" --print-isa)"
    tier_entries=()
    simd_rc=0
    for tier in scalar avx2; do
        resolved="$(FRACDRAM_ISA=${tier} "${kern_bin}" --print-isa |
            sed -n 's/.*"resolved": "\([a-z0-9]\{1,\}\)".*/\1/p')"
        if [[ "${resolved}" != "${tier}" ]]; then
            echo "  skipping ${tier} (resolves to ${resolved:-?})" >&2
            continue
        fi
        echo "  sweeping ${tier}" >&2
        kern_json="$(mktemp)"
        rc=0
        FRACDRAM_ISA=${tier} "${kern_bin}" \
            --benchmark_filter='(/16384|sha256SingleBlocks/32)$' \
            --benchmark_min_time=0.2 \
            --benchmark_format=json > "${kern_json}" 2> /dev/null || rc=$?
        if [[ "${rc}" -ne 0 ]]; then
            echo "error: bench_kernels (${tier}) exited with ${rc}" >&2
            simd_rc="${rc}"
            failures=$((failures + 1))
            rm -f "${kern_json}"
            continue
        fi
        # real_time is ns for the whole call; divide by the arg to get
        # ns per element (per block for the SHA bench).
        per_kernel="$(python3 - "${kern_json}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
out = {}
for b in doc.get("benchmarks", []):
    name, _, arg = b["name"].partition("/")
    out[name.removeprefix("BM_")] = round(
        b["real_time"] / float(arg), 3)
print(json.dumps(out))
PY
)"
        tier_entries+=("\"${tier}\": ${per_kernel}")
        rm -f "${kern_json}"
    done
    tiers_json="{$(IFS=', '; echo "${tier_entries[*]}")}"
    records+=("  {\"bench\": \"bench_simd\", \"exit_code\": ${simd_rc}, \"isa\": ${isa_info}, \"ns_per_elem\": ${tiers_json}}")
fi

# One daemon + one timed loadgen burst, the direct arm of the router
# A/B. Prints the loadgen req/s (0 on failure).
service_rps() {
    local duration="$1" pf lj sl pid port rps rc=0
    pf="$(mktemp)" lj="$(mktemp)" sl="$(mktemp)"
    rm -f "${pf}"
    "${serve_bin}" --port 0 --shards 4 --port-file "${pf}" \
        --reactors "${FRACDRAM_BENCH_REACTORS:-0}" --quiet \
        > "${sl}" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do
        [[ -s "${pf}" ]] && break
        sleep 0.1
    done
    if [[ -s "${pf}" ]]; then
        port="$(cat "${pf}")"
        "${loadgen_bin}" --port "${port}" --conns 4 --window 16 \
            --duration "${duration}" \
            --bytes "${FRACDRAM_BENCH_BYTES:-32}" --warmup-ms 300 \
            --quiet --json-out "${lj}" > /dev/null 2>&1 || rc=$?
    else
        rc=1
    fi
    kill -TERM "${pid}" 2> /dev/null || true
    wait "${pid}" 2> /dev/null || true
    rps="$(sed -n 's/.*"requests_per_sec": \([0-9.]\{1,\}\).*/\1/p' \
        "${lj}" 2> /dev/null | head -1)"
    rm -f "${pf}" "${lj}" "${sl}"
    [[ "${rc}" -eq 0 && -n "${rps}" ]] || rps=0
    echo "${rps}"
}

# Like service_rps, but with a one-backend fracdram_router between
# loadgen and the daemon: same daemon flags, same burst shape, one
# extra hop. Prints the loadgen req/s through the router (0 on
# failure).
router_rps() {
    local duration="$1" pf rpf lj sl rl pid rpid port rport rps rc=0
    pf="$(mktemp)" rpf="$(mktemp)" lj="$(mktemp)"
    sl="$(mktemp)" rl="$(mktemp)"
    rm -f "${pf}" "${rpf}"
    "${serve_bin}" --port 0 --shards 4 --port-file "${pf}" \
        --reactors "${FRACDRAM_BENCH_REACTORS:-0}" --quiet \
        > "${sl}" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do
        [[ -s "${pf}" ]] && break
        sleep 0.1
    done
    if [[ -s "${pf}" ]]; then
        port="$(cat "${pf}")"
        "${router_bin}" --port 0 --backend "127.0.0.1:${port}" \
            --port-file "${rpf}" --quiet > "${rl}" 2>&1 &
        rpid=$!
        for _ in $(seq 1 100); do
            [[ -s "${rpf}" ]] && break
            sleep 0.1
        done
        if [[ -s "${rpf}" ]]; then
            rport="$(cat "${rpf}")"
            "${loadgen_bin}" --port "${rport}" --conns 4 --window 16 \
                --duration "${duration}" \
                --bytes "${FRACDRAM_BENCH_BYTES:-32}" --warmup-ms 300 \
                --quiet --json-out "${lj}" > /dev/null 2>&1 || rc=$?
        else
            rc=1
        fi
        kill -TERM "${rpid}" 2> /dev/null || true
        wait "${rpid}" 2> /dev/null || true
    else
        rc=1
    fi
    kill -TERM "${pid}" 2> /dev/null || true
    wait "${pid}" 2> /dev/null || true
    rps="$(sed -n 's/.*"requests_per_sec": \([0-9.]\{1,\}\).*/\1/p' \
        "${lj}" 2> /dev/null | head -1)"
    rm -f "${pf}" "${rpf}" "${lj}" "${sl}" "${rl}"
    [[ "${rc}" -eq 0 && -n "${rps}" ]] || rps=0
    echo "${rps}"
}

# Interleaved direct-vs-router serving A/B: the routed arm adds one
# fracdram_router hop (decode, ring lookup, re-frame, second socket
# pair) in front of an otherwise identical daemon and burst, at
# window 16 both ways. Two payload points are measured:
#
#  - 1 KiB entropy reads (the headline `median_overhead_pct`): the
#    fleet's serving workload, where a request costs the daemon a
#    full DRBG block run and the router's fixed per-frame work is
#    amortized the way it is in production,
#  - 32 B frames (`small_frame_overhead_pct`): the frame-stress
#    point, which on a single-core host is really a CPU-share
#    measurement - loadgen, daemon and router all compete for one
#    core, so throughput is 1/sum(per-process cost) and even a
#    free router would lose the third process's share. Reported for
#    transparency, not as the serving number.
if [[ "${router_ab}" -gt 0 && -x "${serve_bin}" && -x "${loadgen_bin}" \
    && -x "${router_bin}" ]] &&
    { [[ -z "${filter}" ]] || grep -qE "${filter}" <<< "bench_router_ab"; }; then
    echo "timing bench_router_ab (${router_ab} interleaved direct/router pairs per payload point)" >&2
    rab_rc=0
    rab_fields=""
    for rab_bytes in 1024 32; do
        direct_rps=()
        routed_rps=()
        for _ in $(seq 1 "${router_ab}"); do
            r_direct="$(FRACDRAM_BENCH_BYTES=${rab_bytes} service_rps 2)"
            r_routed="$(FRACDRAM_BENCH_BYTES=${rab_bytes} router_rps 2)"
            echo "  [${rab_bytes} B] direct ${r_direct} req/s, routed ${r_routed} req/s" >&2
            [[ "${r_direct}" == "0" || "${r_routed}" == "0" ]] && rab_rc=1
            direct_rps+=("${r_direct}")
            routed_rps+=("${r_routed}")
        done
        direct_list="$(IFS=,; echo "${direct_rps[*]}")"
        routed_list="$(IFS=,; echo "${routed_rps[*]}")"
        read -r direct_median routed_median router_pct < <(awk \
            -v o="${direct_list}" -v n="${routed_list}" 'BEGIN {
                no = split(o, oa, ","); nn = split(n, na, ",");
                for (i = 2; i <= no; i++)
                    for (j = i; j > 1 && oa[j-1] > oa[j]; j--)
                        { t = oa[j]; oa[j] = oa[j-1]; oa[j-1] = t; }
                for (i = 2; i <= nn; i++)
                    for (j = i; j > 1 && na[j-1] > na[j]; j--)
                        { t = na[j]; na[j] = na[j-1]; na[j-1] = t; }
                om = (no % 2) ? oa[(no+1)/2] : (oa[no/2] + oa[no/2+1]) / 2;
                nm = (nn % 2) ? na[(nn+1)/2] : (na[nn/2] + na[nn/2+1]) / 2;
                printf "%.1f %.1f %.2f\n", om, nm,
                    (om > 0 ? (om - nm) / om * 100 : 0);
            }')
        echo "  [${rab_bytes} B] medians: direct ${direct_median}, routed ${routed_median}, overhead ${router_pct}%" >&2
        if [[ "${rab_bytes}" -eq 1024 ]]; then
            rab_fields="\"bytes\": 1024, \"direct_rps\": [${direct_list}], \"routed_rps\": [${routed_list}], \"direct_rps_median\": ${direct_median}, \"routed_rps_median\": ${routed_median}, \"median_overhead_pct\": ${router_pct}"
        else
            rab_fields="${rab_fields}, \"small_frame_bytes\": 32, \"small_frame_direct_rps\": [${direct_list}], \"small_frame_routed_rps\": [${routed_list}], \"small_frame_overhead_pct\": ${router_pct}"
        fi
    done
    if [[ "${rab_rc}" -ne 0 ]]; then
        echo "error: bench_router_ab had failed bursts" >&2
        failures=$((failures + 1))
    fi
    records+=("  {\"bench\": \"bench_router_ab\", \"exit_code\": ${rab_rc}, \"pairs\": ${router_ab}, \"window\": 16, ${rab_fields}}")
fi

if [[ ${#records[@]} -eq 0 ]]; then
    echo "error: no benches matched (filter: '${filter:-<none>}')" >&2
    exit 1
fi

{
    echo "["
    for i in "${!records[@]}"; do
        sep=","
        [[ "${i}" -eq $((${#records[@]} - 1)) ]] && sep=""
        echo "${records[${i}]}${sep}"
    done
    echo "]"
} > "${out}"

echo "wrote ${out} (${#records[@]} benches, threads=${threads})" >&2

if [[ "${failures}" -gt 0 ]]; then
    echo "error: ${failures} bench(es) failed" >&2
    exit 1
fi
