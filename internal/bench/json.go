package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"carat/internal/obs"
)

// Machine-readable experiment output. The document format is versioned so
// downstream tooling can detect incompatible changes; bump ResultVersion
// whenever a field is renamed, removed, or changes meaning (additions are
// compatible). The schema is documented in DESIGN.md ("Observability").

// ResultSchema identifies the bench output document format.
const ResultSchema = "carat.bench.result"

// ResultVersion is the current document format version. v2 added the
// per-experiment wall_ms field and the top-level workers field.
const ResultVersion = 2

// ExperimentResult is one experiment's typed result inside a Document.
type ExperimentResult struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	// WallMS is the experiment's wall-clock duration in milliseconds
	// (host time, not simulated time).
	WallMS float64 `json:"wall_ms"`
	Data   Result  `json:"data"`
}

// UnmarshalJSON decodes strictly, Data included: Data decodes into the type
// its experiment's runner returns.
func (r *ExperimentResult) UnmarshalJSON(b []byte) error {
	type header ExperimentResult // without this method
	raw := struct {
		*header
		Data json.RawMessage `json:"data"`
	}{header: (*header)(r)}
	if err := obs.DecodeStrict(bytes.NewReader(b), &raw); err != nil {
		return err
	}
	for _, e := range Experiments() {
		if e.ID == r.Experiment {
			var err error
			r.Data, err = e.decode(raw.Data)
			return err
		}
	}
	return fmt.Errorf("unknown experiment %q", r.Experiment)
}

// Document is the top-level machine-readable output of a bench run.
type Document struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Tool records the producing command ("caratbench").
	Tool  string `json:"tool"`
	Scale string `json:"scale"`
	// Workers is the worker-pool width the sweep ran with.
	Workers int `json:"workers"`
	// Results holds one entry per experiment run, in paper order.
	Results []ExperimentResult `json:"results"`
	// Metrics, when metrics collection was enabled, is the final registry
	// snapshot accumulated across every VM run in the sweep.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// RunJSON executes the experiment (or "all") and writes the versioned JSON
// document to w. When o.Obs is set its final snapshot is embedded.
func RunJSON(id string, o Options, w io.Writer) error {
	exps, err := selected(id)
	if err != nil {
		return err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	doc := Document{
		Schema:  ResultSchema,
		Version: ResultVersion,
		Tool:    "caratbench",
		Scale:   o.Scale.String(),
		Workers: workers,
	}
	for _, e := range exps {
		start := time.Now()
		r, err := e.Run(o)
		if err != nil {
			return err
		}
		doc.Results = append(doc.Results, ExperimentResult{
			Experiment: e.ID, Title: e.Title,
			WallMS: float64(time.Since(start).Nanoseconds()) / 1e6,
			Data:   r,
		})
	}
	if o.Obs != nil {
		snap := o.Obs.Snapshot()
		doc.Metrics = &snap
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
