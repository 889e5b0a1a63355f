#!/usr/bin/env bash
# 10k-concurrent-connection smoke test, wired into ctest as
# "smoke_10k_conns":
#
#   1. start fracdram_serve with a 12k connection cap,
#   2. storm it: fracdram_loadgen --storm opens 10 000 concurrent
#      connections, sends ONE request on each and requires an answer
#      on every single one (the reactor core must hold 10k live fds
#      while answering) while the storm's own peak RSS stays under a
#      bound (a per-connection client buffer would blow it),
#   3. once the ready-file confirms all answers arrived, SIGTERM the
#      daemon while all 10k connections are still open and require a
#      clean (exit 0) drain: every storm connection must see EOF, not
#      a reset, and the daemon log must carry the clean-shutdown
#      marker.
#
# Given a router binary, the storm goes through fracdram_router
# (--max-conns n+64) in front of the daemon instead ("routed" run,
# ctest "smoke_10k_conns_routed"): the router must hold the 10k
# client fds, and it is the process that gets SIGTERM and must drain
# cleanly; the daemon is stopped the same way afterwards.
#
# The storm runs in a separate process so the 10k client fds and the
# 10k server fds live under separate RLIMIT_NOFILE budgets.
#
# Usage: smoke_10k_conns.sh <fracdram_serve> <fracdram_loadgen>
#            [n_conns] [fracdram_router]

set -euo pipefail

serve_bin="${1:?usage: smoke_10k_conns.sh <serve_bin> <loadgen_bin> [n]}"
loadgen_bin="${2:?usage: smoke_10k_conns.sh <serve_bin> <loadgen_bin> [n]}"
n_conns="${3:-10000}"
router_bin="${4:-}"

# The storm needs n_conns fds plus slack on each side.
need=$((n_conns + 100))
limit="$(ulimit -n -H)"
if [[ "${limit}" != "unlimited" && "${limit}" -lt "${need}" ]]; then
    echo "SKIP: fd hard limit ${limit} < ${need}" >&2
    exit 0
fi
ulimit -n "${need}" 2> /dev/null || true

# Bound on the storm process's peak RSS (VmHWM). At 10 000
# connections a plain build peaks at 3.6-4.1 MiB and an ASan build at
# 11 MiB; 16 MiB leaves room for both and trips on any read buffer of
# 2 KiB or more held per connection.
max_storm_hwm_kib=16384

workdir="$(mktemp -d)"
serve_pid=""
router_pid=""
storm_pid=""
cleanup() {
    [[ -n "${storm_pid}" ]] && kill "${storm_pid}" 2> /dev/null || true
    [[ -n "${router_pid}" ]] && kill "${router_pid}" 2> /dev/null || true
    [[ -n "${serve_pid}" ]] && kill "${serve_pid}" 2> /dev/null || true
    rm -rf "${workdir}"
}
trap cleanup EXIT

port_file="${workdir}/port"
serve_log="${workdir}/serve.log"
storm_log="${workdir}/storm.log"
ready_file="${workdir}/ready"

"${serve_bin}" --port 0 --shards 2 --cols 512 \
    --max-conns $((n_conns + 64)) --rate-limit 0 \
    --port-file "${port_file}" > "${serve_log}" 2>&1 &
serve_pid=$!

for _ in $(seq 1 100); do
    [[ -s "${port_file}" ]] && break
    kill -0 "${serve_pid}" 2> /dev/null || {
        echo "FAIL: daemon died during startup" >&2
        cat "${serve_log}" >&2
        exit 1
    }
    sleep 0.1
done
[[ -s "${port_file}" ]] || {
    echo "FAIL: daemon never published its port" >&2
    exit 1
}
port="$(cat "${port_file}")"
echo "daemon up on port ${port} (pid ${serve_pid})" >&2

# Stop a server with SIGTERM and require a clean (exit 0) drain with
# the clean-shutdown marker in its log.
drain() {
    local pid="$1" log="$2" what="$3" rc=0
    kill -TERM "${pid}"
    wait "${pid}" || rc=$?
    if [[ "${rc}" -ne 0 ]]; then
        echo "FAIL: ${what} exited ${rc} on SIGTERM" >&2
        tail -50 "${log}" >&2
        exit 1
    fi
    grep -q "clean shutdown" "${log}" || {
        echo "FAIL: no clean-shutdown marker in ${what} log" >&2
        tail -50 "${log}" >&2
        exit 1
    }
}

front_port="${port}"
if [[ -n "${router_bin}" ]]; then
    router_log="${workdir}/router.log"
    "${router_bin}" --port 0 --backend "127.0.0.1:${port}" \
        --max-conns $((n_conns + 64)) --quiet \
        --port-file "${workdir}/router.port" > "${router_log}" 2>&1 &
    router_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "${workdir}/router.port" ]] && break
        kill -0 "${router_pid}" 2> /dev/null || break
        sleep 0.1
    done
    [[ -s "${workdir}/router.port" ]] || {
        echo "FAIL: router never published its port" >&2
        cat "${router_log}" >&2
        exit 1
    }
    front_port="$(cat "${workdir}/router.port")"
    echo "router up on port ${front_port} (pid ${router_pid})" >&2
fi

"${loadgen_bin}" --port "${front_port}" --storm "${n_conns}" \
    --ready-file "${ready_file}" \
    > "${storm_log}" 2>&1 &
storm_pid=$!

# Wait for every storm connection to be opened AND answered.
for _ in $(seq 1 600); do
    [[ -s "${ready_file}" ]] && break
    kill -0 "${storm_pid}" 2> /dev/null || break
    sleep 0.1
done
[[ -s "${ready_file}" ]] || {
    echo "FAIL: storm never reported ready:" >&2
    cat "${storm_log}" >&2
    exit 1
}
grep -q "answered ${n_conns}" "${ready_file}" || {
    echo "FAIL: not all connections answered: $(cat "${ready_file}")" >&2
    cat "${storm_log}" >&2
    exit 1
}
echo "storm ready: $(cat "${ready_file}")" >&2

# Peak RSS of the storm with every connection open and answered. A
# read buffer kept per client connection would be multiplied by
# n_conns here (64 KiB x 10 000 = 640 MiB).
storm_hwm_kib="$(awk '/^VmHWM:/ {print $2}' "/proc/${storm_pid}/status")"
echo "storm VmHWM: ${storm_hwm_kib:-?} kB (bound ${max_storm_hwm_kib} kB)" >&2
if [[ -z "${storm_hwm_kib}" || "${storm_hwm_kib}" -gt "${max_storm_hwm_kib}" ]]; then
    echo "FAIL: storm peak RSS ${storm_hwm_kib:-unreadable} kB is over ${max_storm_hwm_kib} kB" >&2
    exit 1
fi

# Drain with all n_conns connections still open. The storm holds its
# sockets and requires EOF (not ECONNRESET) on every one.
if [[ -n "${router_pid}" ]]; then
    drain "${router_pid}" "${router_log}" router
    router_pid=""
fi
drain "${serve_pid}" "${serve_log}" daemon
serve_pid=""

storm_rc=0
wait "${storm_pid}" || storm_rc=$?
storm_pid=""
if [[ "${storm_rc}" -ne 0 ]]; then
    echo "FAIL: storm exited ${storm_rc}:" >&2
    cat "${storm_log}" >&2
    exit 1
fi
echo "storm summary: $(tail -3 "${storm_log}")" >&2
echo "PASS: smoke_10k_conns (${n_conns} connections${router_bin:+, routed})" >&2
