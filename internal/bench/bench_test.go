package bench

import (
	"bytes"
	"strings"
	"testing"

	"carat/internal/mmpolicy"
	"carat/internal/workload"
)

// quickOpts restricts experiments to a fast, representative benchmark
// subset at test scale.
func quickOpts(names ...string) Options {
	o := DefaultOptions(workload.ScaleTest)
	o.Only = names
	return o
}

func TestFig2ShapeHolds(t *testing.T) {
	r, err := Fig2(quickOpts("EP", "blackscholes", "canneal", "mcf_s"))
	if err != nil {
		t.Fatal(err)
	}
	mpki := map[string]float64{}
	for _, row := range r.Rows {
		mpki[row.Name] = row.DTLBMPKI
	}
	// The paper's headline: random/huge-footprint workloads orders of
	// magnitude above tiny-footprint ones.
	if mpki["canneal"] < 3*mpki["EP"] {
		t.Errorf("canneal MPKI %.3f not well above EP %.3f", mpki["canneal"], mpki["EP"])
	}
	// mcf's pointer chasing must stay well above the tiny-footprint EP.
	// (The full spread vs streaming benchmarks needs -scale small; test
	// scale keeps footprints deliberately small.)
	if mpki["mcf_s"] < 2*mpki["EP"] {
		t.Errorf("mcf MPKI %.3f not well above EP %.3f", mpki["mcf_s"], mpki["EP"])
	}
	for _, row := range r.Rows {
		if row.Instrs == 0 {
			t.Errorf("%s executed nothing", row.Name)
		}
	}
}

func TestTable1FractionsValid(t *testing.T) {
	r, err := Table1(quickOpts("LU", "canneal", "swaptions"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		sum := row.Untouched + row.Opt1 + row.Opt2 + row.Opt3
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %.3f", row.Name, sum)
		}
		if row.OptGuards < 0 || row.OptGuards > 1.5 {
			t.Errorf("%s: remaining fraction %.3f out of range", row.Name, row.OptGuards)
		}
	}
	if r.Mean.Untouched == 0 && r.Mean.Opt3 == 0 {
		t.Error("mean row not computed")
	}
}

func TestFig3MPXBeatsRange(t *testing.T) {
	r, err := Fig3(quickOpts("canneal", "LU"), true)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.GeoMPX >= 1 && r.GeoRange >= 1) {
		t.Errorf("overheads below 1: mpx %.3f range %.3f", r.GeoMPX, r.GeoRange)
	}
	if r.GeoMPX > r.GeoRange+1e-9 {
		t.Errorf("MPX (%.3f) costlier than range guards (%.3f)", r.GeoMPX, r.GeoRange)
	}
}

func TestFig3OptsReduceOverhead(t *testing.T) {
	naive, err := Fig3(quickOpts("LU", "lbm_s"), false)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Fig3(quickOpts("LU", "lbm_s"), true)
	if err != nil {
		t.Fatal(err)
	}
	if opt.GeoRange >= naive.GeoRange {
		t.Errorf("CARAT opts did not reduce range-guard overhead: %.3f -> %.3f",
			naive.GeoRange, opt.GeoRange)
	}
}

func TestFig4Shapes(t *testing.T) {
	r, err := Fig4(DefaultOptions(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	// Index points by (mech, pattern, regions).
	get := func(mech, pat string, regions int) float64 {
		for _, p := range r.Points {
			if p.Mechanism == mech && p.Pattern == pat && p.Regions == regions {
				return p.AvgCycles
			}
		}
		t.Fatalf("missing point %s/%s/%d", mech, pat, regions)
		return 0
	}
	// Random cost grows with region count.
	if get("iftree", "random", 16384) <= get("iftree", "random", 4) {
		t.Error("if-tree random cost did not grow with regions")
	}
	if get("bsearch", "random", 16384) <= get("bsearch", "random", 4) {
		t.Error("bsearch random cost did not grow with regions")
	}
	// Small-stride access much cheaper than random at high region counts.
	if get("iftree", "stride 8", 4096)*2 > get("iftree", "random", 4096) {
		t.Error("strided access not well below random")
	}
}

func TestTable2RatesShape(t *testing.T) {
	r, err := Table2(quickOpts("EP", "swaptions", "mcf_s"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Table2Row{}
	for _, row := range r.Rows {
		rows[row.Name] = row
	}
	// Move rates must be far below allocation rates everywhere.
	for name, row := range rows {
		if row.PageMoves*100 > row.PageAllocs {
			t.Errorf("%s: moves (%d) not rare vs allocs (%d)", name, row.PageMoves, row.PageAllocs)
		}
	}
	// EP allocates almost nothing beyond its initial mapping.
	if ep, mcf := rows["EP"], rows["mcf_s"]; ep.PageAllocs >= mcf.PageAllocs {
		t.Errorf("EP allocs (%d) not below mcf (%d)", ep.PageAllocs, mcf.PageAllocs)
	}
}

func TestFig5NABOutlier(t *testing.T) {
	r, err := Fig5(quickOpts("EP", "nab_s"))
	if err != nil {
		t.Fatal(err)
	}
	var nab, ep Fig5Row
	for _, row := range r.Rows {
		switch row.Name {
		case "nab_s":
			nab = row
		case "EP":
			ep = row
		}
	}
	if nab.Max <= 50 {
		t.Errorf("nab_s max escapes = %d, want > 50", nab.Max)
	}
	if ep.Max > 10 {
		t.Errorf("EP max escapes = %d, want small", ep.Max)
	}
}

func TestFig6SwaptionsOutlier(t *testing.T) {
	r, err := Fig6(quickOpts("EP", "swaptions"))
	if err != nil {
		t.Fatal(err)
	}
	var sw, ep float64
	for _, row := range r.Rows {
		if row.Ratio < 1 {
			t.Errorf("%s: ratio %.3f below 1", row.Name, row.Ratio)
		}
		switch row.Name {
		case "swaptions":
			sw = row.Ratio
		case "EP":
			ep = row.Ratio
		}
	}
	if sw <= ep {
		t.Errorf("swaptions ratio (%.3f) not above EP (%.3f)", sw, ep)
	}
}

// TestFig6RowPinned pins one Figure 6 row at test scale, byte for byte.
// freqmine is the row to watch: its tracking bytes are mostly the escape
// batch buffer, reported by capacity (1 280 events once a batch has filled
// it), so a refactor of the buffer — a second backing array, a preallocation,
// a different drain — moves this number before it moves anything else.
func TestFig6RowPinned(t *testing.T) {
	r, err := Fig6(quickOpts("freqmine"))
	if err != nil {
		t.Fatal(err)
	}
	want := Fig6Row{Name: "freqmine", BaselineBytes: 94256, TrackingBytes: 98096, Ratio: float64(94256+98096) / 94256}
	if len(r.Rows) != 1 || r.Rows[0] != want {
		t.Errorf("Figure 6 freqmine row = %+v, want %+v", r.Rows, want)
	}
}

func TestFig7OverheadSmall(t *testing.T) {
	r, err := Fig7(quickOpts("EP", "LU", "canneal"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Geomean < 0.99 {
		t.Errorf("tracking made programs faster? geomean %.3f", r.Geomean)
	}
	if r.Geomean > 1.6 {
		t.Errorf("tracking overhead too high: geomean %.3f (paper: ~2%%)", r.Geomean)
	}
}

func TestFig9OverheadGrowsWithRate(t *testing.T) {
	r, err := Fig9(quickOpts("canneal"))
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	// Higher rates must not be cheaper, and the top rate must do moves.
	first, last := row.Overhead[0], row.Overhead[len(row.Overhead)-1]
	if last < first {
		t.Errorf("overhead fell with rate: %.3f -> %.3f", first, last)
	}
	if row.Moves[len(row.Moves)-1] == 0 {
		t.Error("no moves at the highest rate")
	}
}

func TestTable3Breakdown(t *testing.T) {
	r, err := Table3(quickOpts("canneal", "nab_s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if row.Moves == 0 {
			t.Errorf("%s: no moves recorded", row.Name)
		}
		if row.TotalCost < row.ProtoCost {
			t.Errorf("%s: total < prototype cost", row.Name)
		}
		if row.FracNoExpand <= 0 || row.FracNoExpand >= 1 {
			t.Errorf("%s: w/o-expand fraction %.4f out of (0,1)", row.Name, row.FracNoExpand)
		}
	}
}

func TestRunByIDAndPrinting(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts("EP")
	if err := RunByID("fig2", o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2") || !strings.Contains(buf.String(), "EP") {
		t.Errorf("fig2 output malformed:\n%s", buf.String())
	}
	if err := RunByID("nosuch", o, &buf); err == nil {
		t.Error("unknown experiment id accepted")
	}
	if len(Experiments()) != 16 {
		t.Errorf("experiment registry has %d entries, want 16", len(Experiments()))
	}
}

func TestAblationAllocGranularity(t *testing.T) {
	r, err := AblationAllocGranularity(quickOpts("canneal", "nab_s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no ablation rows")
	}
	// Allocation-granularity must be cheaper per move.
	if r.GeoReduction <= 0 {
		t.Errorf("geomean reduction = %.3f, want > 0", r.GeoReduction)
	}
}

func TestAblationCapsule(t *testing.T) {
	r, err := AblationCapsule(quickOpts("canneal", "LU"))
	if err != nil {
		t.Fatal(err)
	}
	if r.GeoSpeedup < 1.0 {
		t.Errorf("capsule geomean speedup %.3f below 1.0", r.GeoSpeedup)
	}
}

func TestDefragRestoresSuperpageRun(t *testing.T) {
	r, err := Defrag(DefaultOptions(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	if r.FragBefore.LargestRun >= r.TargetRun {
		t.Errorf("churn phase did not fragment: largest run %d before compaction",
			r.FragBefore.LargestRun)
	}
	if !r.Restored {
		t.Errorf("daemon failed to assemble %d-page run (largest %d after %d ticks)",
			r.TargetRun, r.FragAfter.LargestRun, r.Ticks)
	}
	if !r.Verified {
		t.Error("harness integrity not verified")
	}
	if r.Moves == 0 {
		t.Error("no compaction moves recorded")
	}
	// Per-move costs must decompose like Table 3: a real total built from
	// patch and copy work.
	if r.Breakdown.TotalCost <= 0 || r.Breakdown.AllocAndMove <= 0 {
		t.Errorf("degenerate move breakdown: %+v", r.Breakdown)
	}
	if r.Policy == nil || r.Policy.Schema != "carat.policy" {
		t.Error("missing or mislabeled policy document")
	}
}

func TestTieringSwapsUnderPressure(t *testing.T) {
	r, err := Tiering(DefaultOptions(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	if r.SwapOuts == 0 {
		t.Error("no evictions despite pressure")
	}
	if r.SwapIns == 0 {
		t.Error("nothing faulted back in")
	}
	if !r.Verified {
		t.Error("harness integrity not verified")
	}
}

func TestPolicyPressureRun(t *testing.T) {
	r, err := Policy(DefaultOptions(workload.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Error("harness integrity not verified")
	}
	if r.Ticks == 0 {
		t.Error("daemon never ticked")
	}
	total := r.Totals.Moves + r.Totals.SwapOuts
	if total == 0 {
		t.Error("no policy activity under pressure")
	}
	if r.Totals.DaemonCycles == 0 {
		t.Error("daemon overhead unaccounted")
	}
	var sink int
	o := DefaultOptions(workload.ScaleTest)
	o.PolicySink = func(doc *mmpolicy.Document) {
		sink++
		if doc == nil || len(doc.Decisions) == 0 {
			t.Error("sink received empty document")
		}
	}
	if _, err := Policy(o); err != nil {
		t.Fatal(err)
	}
	if sink != 1 {
		t.Errorf("policy sink called %d times, want 1", sink)
	}
}
