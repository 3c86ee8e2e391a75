#!/bin/sh
# Server smoke on the real caratd binary: boot it, wait for /readyz, POST a
# module, run it twice by ref (both runs must produce the same digest),
# validate both carat.server.result documents,
# scrape /metrics and validate it as Prometheus text, then SIGTERM and
# require a clean drain and exit. Concurrent load, overload 429s and
# overlapping runs are TestRunDeterministicUnderConcurrency's
# (internal/server). Run by `make smoke`.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

$GO build -o "$tmp/caratd" ./cmd/caratd

"$tmp/caratd" -addr 127.0.0.1:0 2>"$tmp/stderr.log" &
pid=$!

# The daemon prints its bound address to stderr before serving requests.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's|^caratd: listening on http://||p' "$tmp/stderr.log" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "server smoke: caratd died:"; cat "$tmp/stderr.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || { echo "server smoke: no bind line in stderr"; cat "$tmp/stderr.log"; exit 1; }

# /readyz is 200 from startup until drain begins. Fail fast if the daemon
# dies mid-poll — otherwise this loop burns its full timeout retrying a
# dead port and the real error (in stderr.log) never surfaces.
code=000
i=0
while [ $i -lt 100 ]; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz" || echo 000)
    [ "$code" = 200 ] && break
    kill -0 "$pid" 2>/dev/null || { echo "server smoke: caratd died:"; cat "$tmp/stderr.log"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ "$code" = 200 ] || {
    echo "server smoke: /readyz never turned 200 (last $code); daemon stderr:"
    cat "$tmp/stderr.log"
    exit 1
}

# Precompile a module, then run it twice by ref with the same seed.
cat >"$tmp/module.json" <<'EOF'
{"tenant": "smoke", "name": "smoke-mod", "source": "func main(): int { var s = 1; for (var i = 0; i < 1000; i = i + 1) { s = (s * 31 + i) & 65535; } print_int(s); return s; }"}
EOF
curl -fsS -X POST -H 'Content-Type: application/json' \
    --data-binary @"$tmp/module.json" "http://$addr/v1/modules" >"$tmp/compile.json"
ref=$(sed -n 's/.*"ref"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/p' "$tmp/compile.json")
[ -n "$ref" ] || { echo "server smoke: no ref in compile response:"; cat "$tmp/compile.json"; exit 1; }

printf '{"tenant": "smoke", "ref": "%s", "seed": 7}' "$ref" >"$tmp/run.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
    --data-binary @"$tmp/run.json" "http://$addr/v1/run" >"$tmp/result1.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
    --data-binary @"$tmp/run.json" "http://$addr/v1/run" >"$tmp/result2.json"
$GO run ./scripts/validatejson "$tmp/result1.json" "$tmp/result2.json"

d1=$(sed -n 's/.*"digest"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/p' "$tmp/result1.json")
d2=$(sed -n 's/.*"digest"[[:space:]]*:[[:space:]]*"\([^"]*\)".*/\1/p' "$tmp/result2.json")
[ -n "$d1" ] && [ "$d1" = "$d2" ] || {
    echo "server smoke: digests differ across identical runs: '$d1' vs '$d2'"; exit 1; }

curl -fsS "http://$addr/healthz" >/dev/null
curl -fsS "http://$addr/metrics" >"$tmp/metrics.prom"
$GO run ./scripts/validatejson -prom "$tmp/metrics.prom"
grep -q '^carat_server_requests_total' "$tmp/metrics.prom" || {
    echo "server smoke: carat_server_requests_total missing from /metrics"; exit 1; }

# Graceful drain: SIGTERM must flip /readyz to 503 and exit cleanly.
kill -TERM "$pid"
wait "$pid" || { echo "server smoke: caratd exited nonzero after drain:"; cat "$tmp/stderr.log"; exit 1; }
pid=""
grep -q 'drained cleanly' "$tmp/stderr.log" || {
    echo "server smoke: no clean-drain line:"; cat "$tmp/stderr.log"; exit 1; }

echo "server smoke: ok"
