package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/mmpolicy"
	"carat/internal/passes"
	"carat/internal/vm"
	"carat/internal/workload"
)

// Table2Row is one benchmark's paging-behaviour measurement.
type Table2Row struct {
	Name            string  `json:"name"`
	StaticFootprint uint64  `json:"static_footprint_pages"` // pages the loader is obligated to provide
	InitialPages    uint64  `json:"initial_pages"`          // resident right after exec()
	PageAllocs      uint64  `json:"page_allocs"`
	PageMoves       uint64  `json:"page_moves"`
	ExecSeconds     float64 `json:"exec_seconds"` // simulated (cycles / CPUFreqHz)
	AllocRate       float64 `json:"alloc_rate"`   // allocations per simulated second
	MoveRate        float64 `json:"move_rate"`
}

// Table2Result reproduces Table 2, "Page (4KB) Allocation and Movement
// Rates", using the MMU-notifier-equivalent accounting of the kernel's
// paging model.
type Table2Result struct {
	Rows              []Table2Row `json:"rows"`
	GeoAllocRate      float64     `json:"geomean_alloc_rate"`
	GeoMoveRate       float64     `json:"geomean_move_rate"`
	HarmonicAllocRate float64     `json:"harmonic_alloc_rate"`
	HarmonicMoveRate  float64     `json:"harmonic_move_rate"`
}

// migrationPeriod models the rare kernel-initiated migrations (NUMA
// balancing, compaction): roughly one per hundred thousand demand
// allocations, which lands the move rates deep below 1/s as the paper
// measures. The pacing itself is mmpolicy.RareMigration — the same policy
// object the Figure 9 injector uses — so both figures share one model.
const migrationPeriod = 100_000

// Table2 runs every benchmark uninstrumented under the traditional model
// with the demand-paging observer attached.
func Table2(o Options) (*Table2Result, error) {
	rows, err := eachWorkload(o, func(w *workload.Workload) (*Table2Row, error) {
		m, _, err := o.compileOnly(w, passes.LevelNone)
		if err != nil {
			return nil, err
		}
		staticPages := staticFootprintPages(m, o)
		initial := initialPages(m)
		paging := kernel.NewPagingModel(staticPages, initial)
		paging.Migrator = mmpolicy.NewRareMigration(migrationPeriod)

		cfg := o.vmConfig(vm.ModeTraditional, guard.MechRange)
		cfg.Paging = paging
		v, err := o.run(w.Name, m, cfg, nil)
		if err != nil {
			return nil, err
		}

		secs := float64(v.Cycles) / CPUFreqHz
		row := &Table2Row{
			Name:            w.Name,
			StaticFootprint: staticPages,
			InitialPages:    initial,
			PageAllocs:      paging.PageAllocs,
			PageMoves:       paging.PageMoves,
			ExecSeconds:     secs,
		}
		if secs > 0 {
			row.AllocRate = float64(paging.PageAllocs) / secs
			row.MoveRate = float64(paging.PageMoves) / secs
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{}
	var allocRates, moveRates []float64
	for _, rp := range rows {
		res.Rows = append(res.Rows, *rp)
		allocRates = append(allocRates, rp.AllocRate)
		moveRates = append(moveRates, rp.MoveRate)
	}
	res.GeoAllocRate = geomean(allocRates)
	res.GeoMoveRate = geomean(moveRates)
	res.HarmonicAllocRate = harmean(allocRates)
	res.HarmonicMoveRate = harmean(moveRates)
	return res, nil
}

// staticFootprintPages is the "static footprint capture" of §3: the LOAD
// sections the loader must provide — code, data+bss (globals), and the
// initial stack.
func staticFootprintPages(m *ir.Module, o Options) uint64 {
	var bytes uint64
	bytes += uint64(len(m.Funcs)*64 + 64) // code
	for _, g := range m.Globals {
		bytes += uint64(g.Size())
	}
	bytes += vm.DefaultConfig().StackBytes
	return pagesOf(bytes)
}

// initialPages is the "initial mapping capture": what is resident right
// after exec() — code and initialized data (file-backed content the loader
// copies), plus one stack page. bss is demand-zeroed later.
func initialPages(m *ir.Module) uint64 {
	var bytes uint64
	bytes += uint64(len(m.Funcs)*64 + 64)
	for _, g := range m.Globals {
		if len(g.Init) > 0 {
			bytes += uint64(len(g.Init))
		}
	}
	return pagesOf(bytes) + 1
}

// Print renders the table.
func (r *Table2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Page (4KB) Allocation and Movement Rates")
	table(w, func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "benchmark\tstatic fp\tinitial\tallocs\tmoves\texec(s)\talloc rate\tmove rate")
		for _, row := range r.Rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.6f\t%.0f/s\t%s\n",
				row.Name, row.StaticFootprint, row.InitialPages, row.PageAllocs,
				row.PageMoves, row.ExecSeconds, row.AllocRate, rateStr(row.MoveRate))
		}
		fmt.Fprintf(tw, "geo mean\t\t\t\t\t\t%.0f/s\t%s\n", r.GeoAllocRate, rateStr(r.GeoMoveRate))
		fmt.Fprintf(tw, "harm mean\t\t\t\t\t\t%.0f/s\t%s\n", r.HarmonicAllocRate, rateStr(r.HarmonicMoveRate))
	})
}

func rateStr(r float64) string {
	if r == 0 {
		return "0/s"
	}
	if r < 1 {
		return "< 1/s"
	}
	return fmt.Sprintf("%.0f/s", r)
}
