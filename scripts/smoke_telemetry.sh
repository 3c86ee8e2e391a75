#!/bin/sh
# Telemetry smoke: start caratbench with a live -http -pprof server, wait
# for /readyz to report the run finished, scrape /metrics and /profile, and
# validate both (Prometheus text exposition and carat.profile v1); require
# /debug/pprof/ to answer 200 there and 404 from a second run without
# -pprof. Run by `make smoke`.
set -eu

GO=${GO:-go}
WORKERS=${WORKERS:-0}
tmp=$(mktemp -d)
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

$GO build -o "$tmp/caratbench" ./cmd/caratbench

# start runs caratbench with the given extra flags and a live telemetry
# server, setting pid and addr: the server prints its bound address to
# stderr as soon as it is up.
start() {
    : >"$tmp/stderr.log"
    "$tmp/caratbench" -exp table3 -scale test -workers "$WORKERS" \
        -http 127.0.0.1:0 -http-linger 60s "$@" \
        >"$tmp/stdout.log" 2>"$tmp/stderr.log" &
    pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's|^caratbench: telemetry on http://||p' "$tmp/stderr.log" | head -n1)
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "telemetry smoke: caratbench died:"; cat "$tmp/stderr.log"; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$addr" ] || { echo "telemetry smoke: no telemetry address in stderr"; cat "$tmp/stderr.log"; exit 1; }
}

# stop ends the running caratbench.
stop() {
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    pid=""
}

# pprof_is requires /debug/pprof/ to answer code.
pprof_is() {
    got=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/pprof/" || echo 000)
    [ "$got" = "$1" ] || { echo "telemetry smoke: /debug/pprof/ answered $got, want $1"; exit 1; }
}

start -pprof

# /readyz turns 200 once the experiments have finished: final metrics and
# the complete profile are then scrapeable.
code=000
i=0
while [ $i -lt 600 ]; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz" || echo 000)
    [ "$code" = 200 ] && break
    kill -0 "$pid" 2>/dev/null || { echo "telemetry smoke: caratbench died:"; cat "$tmp/stderr.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ "$code" = 200 ] || { echo "telemetry smoke: /readyz never turned 200 (last $code)"; exit 1; }

curl -fsS "http://$addr/healthz" >/dev/null
curl -fsS "http://$addr/metrics" >"$tmp/metrics.prom"
curl -fsS "http://$addr/profile" >"$tmp/profile.json"
pprof_is 200
stop

start
pprof_is 404
stop

$GO run ./scripts/validatejson -prom "$tmp/metrics.prom"
$GO run ./scripts/validatejson "$tmp/profile.json"
echo "telemetry smoke: ok"
