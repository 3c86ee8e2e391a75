package bench

import (
	"fmt"
	"io"
	"strings"

	"carat/internal/obs"
)

// Result is what every experiment produces: a typed, JSON-encodable value
// that can also render itself as the paper's text table. The concrete types
// (Fig2Result, Table3Result, ...) carry lowercase json tags so the same
// value feeds both the human table and the machine-readable document
// (see json.go).
type Result interface {
	Print(w io.Writer)
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (Result, error)
	// decode strictly decodes the Data of this experiment's
	// ExperimentResult into the type Run returns.
	decode func(data []byte) (Result, error)
}

// experiment declares an experiment by its typed runner, which also fixes
// the Go type its Data decodes into.
func experiment[R Result](id, title string, run func(Options) (R, error)) Experiment {
	return Experiment{ID: id, Title: title,
		Run: func(o Options) (Result, error) { return run(o) },
		decode: func(data []byte) (Result, error) {
			var r R
			err := obs.DecodeStrict(data, &r)
			return r, err
		},
	}
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		experiment("fig2", "L1 DTLB misses per 1000 instructions", Fig2),
		experiment("table1", "Effectiveness of compiler optimizations", Table1),
		experiment("fig3a", "Guard overhead, general optimizations",
			func(o Options) (*Fig3Result, error) { return Fig3(o, false) }),
		experiment("fig3b", "Guard overhead, CARAT optimizations",
			func(o Options) (*Fig3Result, error) { return Fig3(o, true) }),
		experiment("fig4", "Multi-region software guard cost", Fig4),
		experiment("table2", "Page allocation and movement rates", Table2),
		experiment("fig5", "Escapes per allocation", Fig5),
		experiment("fig6", "Memory overhead of tracking", Fig6),
		experiment("fig7", "Time overhead of tracking", Fig7),
		experiment("fig9", "Worst-case page movement overheads", Fig9),
		experiment("table3", "Per-move cycle breakdown", Table3),
		experiment("abl-alloc", "Ablation: allocation- vs page-granularity moves", AblationAllocGranularity),
		experiment("abl-capsule", "Ablation: capsule vs multi-region layout", AblationCapsule),
		experiment("defrag", "Policy daemon: defragmentation to a superpage run", Defrag),
		experiment("tiering", "Policy daemon: hot/cold tiering via swap", Tiering),
		experiment("policy", "Policy daemon: multi-process pressure, all policies", Policy),
	}
}

// ExperimentIDs returns every valid experiment id, in paper order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// selected resolves an id ("fig2", ... or "all") to the experiments to run.
func selected(id string) ([]Experiment, error) {
	if id == "all" {
		return Experiments(), nil
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (valid ids: %s all)",
		id, strings.Join(ExperimentIDs(), " "))
}

// RunByID executes one experiment by id ("fig2", "table1", ... or "all")
// and prints the text tables to w.
func RunByID(id string, o Options, w io.Writer) error {
	exps, err := selected(id)
	if err != nil {
		return err
	}
	for _, e := range exps {
		if id == "all" {
			fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
		}
		r, err := e.Run(o)
		if err != nil {
			return err
		}
		r.Print(w)
		if id == "all" {
			fmt.Fprintln(w)
		}
	}
	return nil
}
