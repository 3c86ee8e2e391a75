// Command caratd is the long-running multi-tenant CARAT execution server:
// tenants POST CARAT-C or .cir source (or precompiled module refs) and the
// daemon compiles through the pass pipeline (LRU module cache, bounded
// compile pool) and executes each request as a kernel.Process over ONE
// shared physical memory, with the mmpolicy daemon running as a true
// background service on the same machine. Telemetry (/metrics, /profile,
// /healthz, /readyz) is mounted on the same listener.
//
//	caratd -config configs/caratd.sample.json
//	caratd -addr localhost:9321
//
// SIGTERM/SIGINT triggers a graceful drain: admission stops (new work gets
// 503, /readyz flips to 503), in-flight runs finish, the ballast service
// halts after a final integrity verification, and caratd exits nonzero if
// any invariant violation was observed during its lifetime.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"carat/internal/obs"
	"carat/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "caratd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("caratd", flag.ExitOnError)
	var (
		configPath   = fs.String("config", "", "JSON config file (server.Config); flags override")
		addr         = fs.String("addr", "", "listen address (overrides config; default localhost:0)")
		memBytes     = fs.Uint64("mem", 0, "shared physical memory bytes (overrides config)")
		maxInflight  = fs.Int("max-inflight", 0, "machine-wide concurrent request cap (overrides config)")
		noBallast    = fs.Bool("no-ballast", false, "disable the background mmpolicy ballast service")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	)
	fs.Parse(args)

	cfg := server.DefaultServerConfig()
	if *configPath != "" {
		var err error
		if cfg, err = loadConfig(*configPath, cfg); err != nil {
			return err
		}
	}
	if *addr != "" {
		cfg.Addr = *addr
	}
	if *memBytes != 0 {
		cfg.MemBytes = *memBytes
	}
	if *maxInflight != 0 {
		cfg.MaxInflight = *maxInflight
	}
	if *noBallast {
		cfg.Ballast.Disabled = true
	}

	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	bound, err := s.Start()
	if err != nil {
		return err
	}
	// The bind line goes out before any request is served, so harnesses can
	// scrape the port without racing the workload (same contract as the
	// -http flag on caratvm/caratbench).
	fmt.Fprintf(os.Stderr, "caratd: listening on http://%s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Fprintf(os.Stderr, "caratd: %s received, draining\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	violations, err := s.Drain(ctx)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violation(s) observed — machine integrity was breached", violations)
	}
	fmt.Fprintln(os.Stderr, "caratd: drained cleanly")
	return nil
}

// loadConfig reads the JSON config at path over cfg. A key server.Config
// does not have — misspelled, or an option that no longer exists — is an
// error naming it, not a setting silently ignored.
func loadConfig(path string, cfg server.Config) (server.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := obs.DecodeStrict(bytes.NewReader(data), &cfg); err != nil {
		return cfg, fmt.Errorf("parse %s: %w", path, err)
	}
	return cfg, nil
}
