// Command loadgen drives concurrent mixed-workload sessions against a
// running caratd and writes the load report server.RunLoad returns.
//
// Two legs run back to back:
//
//   - steady: N concurrent sessions, each issuing R runs of its module
//     (modules are precompiled via /v1/modules and run by ref). 429s are
//     retried after the advertised backoff, so every session completes;
//     the rejection count measures how often admission control engaged.
//   - overload: a burst of one-shot requests over the server's in-flight
//     cap, no retries. This leg MUST see nonzero 429s — it is the proof
//     that admission control sheds load instead of degrading everyone.
//
// Every response's digest is checked against the first digest seen for
// its (module, seed): any divergence means the server's isolation story
// is broken, and loadgen exits nonzero.
//
//	caratd -config configs/caratd.sample.json &
//	go run ./scripts/loadgen -addr localhost:9321 -sessions 1000 -out BENCH_server.load.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"carat/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "", "caratd address (host:port), required")
		sessions = flag.Int("sessions", 1000, "concurrent sessions in the steady leg")
		requests = flag.Int("requests", 3, "runs per session")
		mods     = flag.Int("mods", 6, "distinct modules in the mix")
		tenants  = flag.Int("tenants", 8, "distinct tenant names")
		burst    = flag.Int("burst", 192, "concurrent one-shot requests in the overload leg")
		out      = flag.String("out", "", "write the JSON load report here (default stdout)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		os.Exit(2)
	}
	cfg := server.LoadConfig{Sessions: *sessions, Requests: *requests, Modules: *mods, Tenants: *tenants, Burst: *burst}
	if err := run(*addr, cfg, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg server.LoadConfig, out string) error {
	doc, err := server.RunLoad("http://"+addr, cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data) //nolint:errcheck
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}

	// Hard assertions: these are the load test's pass/fail criteria.
	steady, over := doc.Legs[0], doc.Legs[1]
	var failures []string
	if steady.Failed > 0 || over.Failed > 0 {
		failures = append(failures, fmt.Sprintf("%d requests failed outright", steady.Failed+over.Failed))
	}
	if steady.OK != uint64(cfg.Sessions)*uint64(cfg.Requests) {
		failures = append(failures, fmt.Sprintf("steady leg completed %d/%d runs", steady.OK, cfg.Sessions*cfg.Requests))
	}
	if over.Rejected429 == 0 {
		failures = append(failures, "overload leg saw zero 429s — admission control never engaged")
	}
	if doc.DigestMismatches > 0 {
		failures = append(failures, fmt.Sprintf("%d digest mismatches — results depended on concurrency", doc.DigestMismatches))
	}
	if doc.InvariantViolations > 0 {
		failures = append(failures, fmt.Sprintf("%d invariant violations on the server", doc.InvariantViolations))
	}
	// Concurrency assertion: with many sessions in flight the server must
	// have actually overlapped executions. A peak of 0 or 1 means every
	// run was serialized — historically this passed silently (e.g. the
	// daemon pinned to one core, or a global lock around Run).
	if cfg.Sessions > 1 && doc.PeakInflight < 2 {
		failures = append(failures, fmt.Sprintf(
			"peak inflight %d with %d concurrent sessions — the server serialized every run",
			doc.PeakInflight, cfg.Sessions))
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	fmt.Fprintf(os.Stderr, "loadgen: ok — %d sessions, %.0f req/s steady, %d overload 429s, cache hit rate %.3f\n",
		cfg.Sessions, steady.ThroughputRPS, over.Rejected429, doc.ModuleCache.HitRate)
	return nil
}
