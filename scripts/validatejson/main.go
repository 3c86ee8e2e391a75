// Command validatejson checks that stdin (or each file argument) is valid
// JSON and, when the document carries a "schema" field, that it is a
// document this repo produces: its version is the one its Go type declares,
// it decodes into that type with no field the type does not declare, and it
// passes the type's own Validate check where the type has one.
//
// With -prom, each input is checked as Prometheus text exposition format
// instead (telemetry.ValidatePrometheus): what the /metrics endpoint serves.
//
// Usage:
//
//	caratbench -exp all -json | go run ./scripts/validatejson
//	go run ./scripts/validatejson trace.json metrics.json
//	go run ./scripts/validatejson -prom smoke_metrics.prom
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"carat/internal/bench"
	"carat/internal/mmpolicy"
	"carat/internal/obs"
	"carat/internal/obs/telemetry"
	"carat/internal/server"
	"carat/internal/vm"
)

// schemas maps every carat.* document name to its declaring type's version
// and a constructor of that type.
var schemas = map[string]struct {
	version int
	doc     func() any
}{
	bench.ResultSchema:  {bench.ResultVersion, func() any { return new(bench.Document) }},
	vm.RunSchema:        {vm.RunVersion, func() any { return new(vm.RunReport) }},
	obs.MetricsSchema:   {obs.MetricsSchemaVersion, func() any { return new(obs.MetricsDocument) }},
	obs.TraceSchema:     {obs.TraceSchemaVersion, func() any { return new(obs.TraceDoc) }},
	obs.ProfileSchema:   {obs.ProfileSchemaVersion, func() any { return new(obs.ProfileDoc) }},
	mmpolicy.Schema:     {mmpolicy.SchemaVersion, func() any { return new(mmpolicy.Document) }},
	mmpolicy.SoakSchema: {mmpolicy.SoakVersion, func() any { return new(mmpolicy.SoakDocument) }},
	server.ResultSchema: {server.ResultVersion, func() any { return new(server.RunResult) }},
}

func main() {
	prom := flag.Bool("prom", false, "validate Prometheus text exposition format instead of JSON")
	flag.Parse()
	check := validate
	if *prom {
		check = telemetry.ValidatePrometheus
	}
	if flag.NArg() == 0 {
		report("stdin", check(os.Stdin))
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err == nil {
			err = check(f)
			f.Close()
		}
		report(path, err)
	}
}

// report prints that name passed, or exits non-zero with why it did not.
func report(name string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "validatejson: %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s: ok\n", name)
}

// validate checks one JSON document: plain JSON without a schema header
// passes once it parses.
func validate(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var head struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if head.Schema == "" {
		return nil
	}
	s, ok := schemas[head.Schema]
	if !ok {
		return fmt.Errorf("unknown schema %q", head.Schema)
	}
	if head.Version != s.version {
		return fmt.Errorf("schema %s version %d unsupported (want %d)", head.Schema, head.Version, s.version)
	}
	doc := s.doc()
	if err := obs.DecodeStrict(bytes.NewReader(data), doc); err != nil {
		return fmt.Errorf("%s: %w", head.Schema, err)
	}
	if v, ok := doc.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("%s: %w", head.Schema, err)
		}
	}
	return nil
}
