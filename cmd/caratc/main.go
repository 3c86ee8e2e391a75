// Command caratc is the CARAT compiler driver: it parses a textual IR
// module, runs the configured pass pipeline (guard injection and
// optimization, allocation/escape tracking), signs the result, and prints
// the transformed module and/or compilation statistics.
//
// Usage:
//
//	caratc [-level none|guards|guards-opt|carat|tracking-only] [-workers N] [-emit] [-stats] [-metrics m.json] file.cir | file.cc
//
// -metrics writes the compile pipeline's metrics-registry snapshot
// (obs.MetricsDocument: carat.passes.* counters and per-pass cycle
// histograms) as JSON, the same registry the caratvm and caratbench
// telemetry endpoints expose live.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"carat/internal/cc"

	"carat/internal/core"
	"carat/internal/ir"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/signing"
)

func main() {
	level := flag.String("level", "carat", "pipeline level: none, guards, guards-opt, carat, tracking-only")
	emit := flag.Bool("emit", false, "print the transformed module")
	stats := flag.Bool("stats", true, "print compilation statistics")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"functions compiled concurrently (1 = sequential; output is identical)")
	metricsFile := flag.String("metrics", "", "write the compile-pipeline metrics snapshot as JSON")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: caratc [flags] file.cir")
		flag.Usage()
		os.Exit(2)
	}

	lvl, err := parseLevel(*level)
	if err != nil {
		fatal(err)
	}
	m, err := loadModule(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	c, err := core.NewCompiler(lvl)
	if err != nil {
		fatal(err)
	}
	c.Workers = *workers
	reg := obs.NewRegistry()
	c.Obs = reg
	res, err := c.Compile(m)
	if err != nil {
		fatal(err)
	}

	if *metricsFile != "" {
		f, err := os.Create(*metricsFile)
		if err != nil {
			fatal(err)
		}
		werr := reg.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(fmt.Errorf("metrics: %w", werr))
		}
	}

	if *emit {
		fmt.Print(res.Binary.Module.String())
	}
	if *stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "guards: injected %d (load %d, store %d, call %d)\n",
			s.GuardsInjected, s.LoadGuards, s.StoreGuards, s.CallGuards)
		fmt.Fprintf(os.Stderr, "  hoisted %d, merged %d (+%d range guards), removed %d, remaining %d\n",
			s.Hoisted, s.Merged, s.RangeNew, s.Removed, s.GuardsRemaining)
		fmt.Fprintf(os.Stderr, "tracking: %d alloc, %d free, %d escape callbacks\n",
			s.AllocCallbacks, s.FreeCallbacks, s.EscapeCallbacks)
		fmt.Fprintf(os.Stderr, "general opts: folded %d, dce %d, cse %d, licm %d\n",
			s.Folded, s.DCEd, s.CSEd, s.LICMMoved)
		fmt.Fprintf(os.Stderr, "signed by %s (key %s)\n",
			res.Binary.Toolchain, signing.Fingerprint(c.Toolchain.Public()))
	}
}

func parseLevel(s string) (passes.Level, error) {
	switch s {
	case "none":
		return passes.LevelNone, nil
	case "guards":
		return passes.LevelGuardsOnly, nil
	case "guards-opt":
		return passes.LevelGuardsOpt, nil
	case "carat":
		return passes.LevelTracking, nil
	case "tracking-only":
		return passes.LevelTrackingOnly, nil
	}
	return 0, fmt.Errorf("caratc: unknown level %q", s)
}

// loadModule reads a program: .cc files are CARAT-C source, anything else
// is textual IR.
func loadModule(path string) (*ir.Module, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".cc") {
		return cc.Compile(strings.TrimSuffix(filepath.Base(path), ".cc"), string(src))
	}
	return ir.Parse(string(src))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caratc:", err)
	os.Exit(1)
}
