// Command soak runs seeded chaos soak tests: multi-process
// churn/defrag/tiering/swap workloads under randomized fault schedules
// (see internal/fault). For every seed it runs the identical workload
// TWICE and requires the two runs to be byte-identical — same final
// cycle count, same metrics snapshot, same policy decision log, same
// physical-memory checksum — and requires the harness integrity check
// and the allocation-table invariants to hold. A failure therefore comes
// with its reproducer: the seed.
//
// Every seed runs three legs, each replayed twice: unbounded (pause
// budget 0, one stop per move); bounded (-pausebudget, default 1000
// cycles) under the identical fault schedule, which must match the
// unbounded leg's cycle clock and memory image exactly while keeping
// every recorded pause within one batch plus a barrier round trip and
// cutting the p99 pause at least 5x; and chaos, which also aborts moves at
// window boundaries (fault.MoveBatch) and must stay deterministic and
// bounded while doing so.
//
// Usage:
//
//	go run ./scripts/soak -seeds 32              # seeds 1..32
//	go run ./scripts/soak -seeds 32 -start 97    # rotating window (CI)
//	go run ./scripts/soak -seed 17 -steps 400    # replay one seed
//	go run ./scripts/soak -seed 17 -trace t.json # with a Chrome trace
//	go run ./scripts/soak -seeds 8 -out soak.json
//
// The report is a versioned carat.soak.result v2 JSON document
// (validated by scripts/validatejson). Exit status is nonzero if any
// seed failed, and the failing seeds' replay commands are printed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"carat/internal/fault"
	"carat/internal/mmpolicy"
	"carat/internal/obs"
	"carat/internal/runtime"
)

// Schema identifies the soak report format; bump Version on any
// incompatible field change.
const (
	Schema  = "carat.soak.result"
	Version = 2
)

// SeedResult is one seed's outcome: the fault schedule it ran under, the
// replay digest, and what the faults exercised.
type SeedResult struct {
	Seed  int64              `json:"seed"`
	Steps int                `json:"steps"`
	Rates map[string]float64 `json:"rates"`

	Cycles      uint64 `json:"cycles"`
	MemChecksum string `json:"mem_checksum"`
	Injected    uint64 `json:"faults_injected"`
	Rollbacks   uint64 `json:"move_rollbacks"`
	Retries     uint64 `json:"move_retries"`
	Pins        uint64 `json:"pins"`
	SwapRetries uint64 `json:"swap_retries"`

	ReplayIdentical bool   `json:"replay_identical"`
	Error           string `json:"error,omitempty"`

	// The pause legs (v2: always present, keyed on budget). The bounded leg
	// shares the unbounded leg's fault schedule; the chaos leg additionally
	// aborts moves at window boundaries. Legs after a failed one are zero.
	PauseBudget    uint64  `json:"pause_budget_cycles"`
	PauseBound     uint64  `json:"pause_bound_cycles"` // one batch + barrier round trip
	UnboundedP99   float64 `json:"unbounded_pause_p99"`
	BoundedP99     float64 `json:"bounded_pause_p99"`
	BoundedMax     uint64  `json:"bounded_pause_max"`
	ChaosMax       uint64  `json:"chaos_pause_max"`
	ChaosRollbacks uint64  `json:"chaos_rollbacks"`
}

// Document is the full soak report.
type Document struct {
	Schema  string       `json:"schema"`
	Version int          `json:"version"`
	Steps   int          `json:"steps"`
	Seeds   []SeedResult `json:"seeds"`
	Passed  int          `json:"passed"`
	Failed  int          `json:"failed"`
}

// Per-point rate ceilings for the randomized schedules. The recovery
// paths are bounded (move retries pin after 4 failures, swap-in retries
// cap at 16 attempts), so the ceilings are chosen to keep exhausting a
// retry bound out of reach while still firing every point constantly:
// e.g. sixteen consecutive swap-in failures at rate 0.3 is ~4e-9.
// chaosBatchRate is the fault.MoveBatch rate for the chaos leg. It is
// deliberately NOT in rateCeilings: window-boundary checks only happen
// when a move outgrows its window, so scheduling the point would let the
// bounded leg consume injector draws the unbounded leg never sees and
// break the cross-budget cycle/memory parity the soak asserts. The chaos
// leg opts in explicitly and gives up cross-budget comparison in exchange.
const chaosBatchRate = 0.10

var rateCeilings = map[fault.Point]float64{
	fault.KernelVeto: 0.20,
	fault.MoveAbort:  0.15,
	fault.PatchFail:  0.05,
	fault.SwapOutIO:  0.20,
	fault.SwapInIO:   0.30,
	fault.SwapDelay:  0.30,
	fault.FlushFail:  0.20,
}

// schedule derives a per-point rate schedule from the seed: every point
// gets a rate in [0, ceiling), with a point occasionally disabled
// entirely so zero-rate paths are exercised too.
func schedule(seed int64) map[fault.Point]float64 {
	rng := rand.New(rand.NewSource(seed))
	rates := make(map[fault.Point]float64, len(fault.Points))
	for _, p := range fault.Points {
		if rng.Float64() < 0.15 {
			continue // this point stays quiet for the whole seed
		}
		rates[p] = rng.Float64() * rateCeilings[p]
	}
	return rates
}

// digest is everything a replay must reproduce byte-for-byte, plus the
// pause tail the pause legs assert on.
type digest struct {
	cycles    uint64
	memSum    uint64
	metrics   []byte // registry snapshot JSON (sorted keys)
	policy    []byte // carat.policy decision document JSON
	pauseMax  uint64
	pauseP99  float64
	rollbacks uint64
}

// runSeed executes one soak run: build the machine, thread the seeded
// injector through every layer, run the workloads, verify integrity, and
// return the digest. trace, when non-nil, receives the run's events.
// pauseBudget is every managed process's max-pause budget (0 = unbounded).
func runSeed(seed int64, steps int, rates map[fault.Point]float64, pauseBudget uint64, tr *obs.Tracer) (digest, SeedResult, error) {
	reg := obs.NewRegistry()
	inj := fault.New(seed, reg)
	inj.SetTracer(tr)
	for p, r := range rates {
		inj.SetRate(p, r)
	}

	// The workload mix mirrors the bench policy experiment at test scale:
	// two fragmentation generators, hot memory tiering must not evict,
	// and cold memory it must. Proc seeds derive from the soak seed so
	// different seeds run different allocation histories.
	prng := rand.New(rand.NewSource(seed ^ 0x5eed))
	h, err := mmpolicy.NewHarness(mmpolicy.HarnessConfig{
		MemBytes:  1 << 21, // 512 pages
		TickEvery: 40_000,
		Procs: []mmpolicy.ProcSpec{
			{Name: "churn-a", Kind: mmpolicy.Churn, Slots: 64 + prng.Intn(64), MaxPages: 4, Seed: prng.Int63()},
			{Name: "churn-b", Kind: mmpolicy.Churn, Slots: 64 + prng.Intn(64), MaxPages: 3, Seed: prng.Int63()},
			{Name: "stream", Kind: mmpolicy.Stream, Slots: 8 + prng.Intn(8), MaxPages: 2, Seed: prng.Int63()},
			{Name: "cold", Kind: mmpolicy.ColdStore, Slots: 32 + prng.Intn(32), MaxPages: 2, Seed: prng.Int63()},
		},
		Policies: []mmpolicy.Policy{
			mmpolicy.NewDefrag(64),
			mmpolicy.NewTiering(),
			mmpolicy.NewNUMARebalance(),
		},
		Obs:         reg,
		Trace:       tr,
		Fault:       inj,
		PauseBudget: pauseBudget,
	})
	if err != nil {
		return digest{}, SeedResult{}, err
	}
	if err := h.Run(steps); err != nil {
		return digest{}, SeedResult{}, fmt.Errorf("run: %w", err)
	}
	// Integrity: every slot still reaches its stamped allocation, and the
	// allocation-table invariants hold unconditionally (CheckInvariants,
	// not the caratdebug-gated variant — the soak always checks).
	if err := h.Verify(); err != nil {
		return digest{}, SeedResult{}, fmt.Errorf("integrity: %w", err)
	}
	for _, wp := range h.Procs {
		if err := wp.MP.RT.Table.CheckInvariants(); err != nil {
			return digest{}, SeedResult{}, fmt.Errorf("invariants (%s): %w", wp.Spec.Name, err)
		}
	}

	var metrics bytes.Buffer
	if err := reg.WriteJSON(&metrics); err != nil {
		return digest{}, SeedResult{}, err
	}
	var policy bytes.Buffer
	if err := h.D.Report().WriteJSON(&policy); err != nil {
		return digest{}, SeedResult{}, err
	}
	ps := reg.Histogram(runtime.PauseHist).Snapshot()
	d := digest{
		cycles:    h.Cycles,
		memSum:    h.K.Mem.Checksum(),
		metrics:   metrics.Bytes(),
		policy:    policy.Bytes(),
		pauseMax:  ps.Max,
		pauseP99:  ps.P99,
		rollbacks: reg.Counter("carat.runtime.move_rollbacks").Get(),
	}
	res := SeedResult{
		Seed:        seed,
		Steps:       steps,
		Cycles:      h.Cycles,
		MemChecksum: fmt.Sprintf("%016x", d.memSum),
		Injected:    inj.InjectedCount(),
		Rollbacks:   reg.Counter("carat.runtime.move_rollbacks").Get(),
		Retries:     reg.Counter("carat.policy.move_retries").Get(),
		Pins:        reg.Counter("carat.policy.pins").Get(),
		SwapRetries: reg.Counter("carat.policy.swap_retries").Get(),
	}
	res.Rates = make(map[string]float64, len(rates))
	for p, r := range rates {
		res.Rates[string(p)] = r
	}
	return d, res, nil
}

// replayPair runs the same configuration twice and reports how the
// digests diverge ("" = byte-identical).
func replayPair(seed int64, steps int, rates map[fault.Point]float64, budget uint64, tr *obs.Tracer) (digest, SeedResult, string) {
	d1, res, err := runSeed(seed, steps, rates, budget, tr)
	if err != nil {
		return digest{}, SeedResult{Seed: seed, Steps: steps}, err.Error()
	}
	d2, _, err := runSeed(seed, steps, rates, budget, nil)
	if err != nil {
		return d1, res, fmt.Sprintf("replay: %v", err)
	}
	switch {
	case d1.cycles != d2.cycles:
		return d1, res, fmt.Sprintf("replay diverged: cycles %d vs %d", d1.cycles, d2.cycles)
	case d1.memSum != d2.memSum:
		return d1, res, fmt.Sprintf("replay diverged: memory %016x vs %016x", d1.memSum, d2.memSum)
	case !bytes.Equal(d1.metrics, d2.metrics):
		return d1, res, "replay diverged: metrics snapshots differ"
	case !bytes.Equal(d1.policy, d2.policy):
		return d1, res, "replay diverged: policy decision logs differ"
	}
	return d1, res, ""
}

// soakSeed runs a seed's three legs — unbounded, bounded, chaos — each
// twice and byte-compared, with the cross-budget parity and bounded-pause
// assertions.
func soakSeed(seed int64, steps int, budget uint64, tr *obs.Tracer) SeedResult {
	rates := schedule(seed)
	batch := runtime.BatchForBudget(budget)
	bound := runtime.PauseBound(batch)

	dUnb, res, diverged := replayPair(seed, steps, rates, 0, tr)
	res.PauseBudget, res.PauseBound = budget, bound
	if diverged != "" {
		res.Seed, res.Steps, res.Error = seed, steps, diverged
		return res
	}
	res.UnboundedP99 = dUnb.pauseP99

	// Bounded leg: same fault schedule, bounded pauses. Everything the
	// program and the fault stream can observe must match the unbounded
	// leg — the modeled cycle clock and the physical memory image — while
	// the pause attribution (and the injector's check counter, which ticks
	// at every window boundary) legitimately differs.
	dBnd, _, diverged := replayPair(seed, steps, rates, budget, nil)
	res.BoundedP99 = dBnd.pauseP99
	res.BoundedMax = dBnd.pauseMax
	switch {
	case diverged != "":
		res.Error = "bounded " + diverged
	case dBnd.cycles != dUnb.cycles:
		res.Error = fmt.Sprintf("budget divergence: cycles %d (unbounded) vs %d (bounded)", dUnb.cycles, dBnd.cycles)
	case dBnd.memSum != dUnb.memSum:
		res.Error = fmt.Sprintf("budget divergence: memory %016x (unbounded) vs %016x (bounded)", dUnb.memSum, dBnd.memSum)
	case dBnd.pauseMax > bound:
		res.Error = fmt.Sprintf("pause over bound: %d > %d (batch %d + barrier)", dBnd.pauseMax, bound, batch)
	case dBnd.pauseP99 > 0 && dUnb.pauseP99 < 5*dBnd.pauseP99:
		res.Error = fmt.Sprintf("p99 drop under 5x: unbounded %.0f vs bounded %.0f", dUnb.pauseP99, dBnd.pauseP99)
	}
	if res.Error != "" {
		return res
	}

	// Chaos leg: moves abort at window boundaries (fault.MoveBatch armed as
	// a scheduled rate) while every pause stays within the bound. The extra
	// injector draws make this leg incomparable to the other two, but it
	// must still replay byte-identically against itself.
	chaosRates := make(map[fault.Point]float64, len(rates)+1)
	for p, r := range rates {
		chaosRates[p] = r
	}
	chaosRates[fault.MoveBatch] = chaosBatchRate
	dChaos, _, diverged := replayPair(seed, steps, chaosRates, budget, nil)
	res.ChaosMax = dChaos.pauseMax
	res.ChaosRollbacks = dChaos.rollbacks
	switch {
	case diverged != "":
		res.Error = "chaos " + diverged
	case dChaos.pauseMax > bound:
		res.Error = fmt.Sprintf("chaos pause over bound: %d > %d", dChaos.pauseMax, bound)
	}
	res.ReplayIdentical = res.Error == ""
	return res
}

func main() {
	seeds := flag.Int("seeds", 8, "number of consecutive seeds to soak")
	start := flag.Int64("start", 1, "first seed (CI rotates this nightly)")
	one := flag.Int64("seed", 0, "run exactly this seed (overrides -seeds/-start)")
	steps := flag.Int("steps", 400, "workload rounds per run")
	pauseBudget := flag.Uint64("pausebudget", 1000,
		"max-pause budget in cycles for the bounded (parity + pause bound + 5x p99 drop) and chaos (window-boundary move aborts) legs")
	out := flag.String("out", "", "write the carat.soak.result JSON report here")
	traceFile := flag.String("trace", "", "write a Chrome trace of the first run of the first seed")
	flag.Parse()

	if *pauseBudget == 0 {
		fmt.Fprintln(os.Stderr, "soak: -pausebudget must be positive (the unbounded leg always runs)")
		os.Exit(2)
	}

	first, count := *start, *seeds
	if *one != 0 {
		first, count = *one, 1
	}

	var tr *obs.Tracer
	var traceClose func() error
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak:", err)
			os.Exit(1)
		}
		tr = obs.NewTracer(f, nil)
		traceClose = func() error {
			if err := tr.Close(); err != nil {
				return err
			}
			return f.Close()
		}
	}

	doc := Document{Schema: Schema, Version: Version, Steps: *steps}
	for i := 0; i < count; i++ {
		seed := first + int64(i)
		var seedTr *obs.Tracer
		if i == 0 {
			seedTr = tr // only the first seed's first run is traced
		}
		res := soakSeed(seed, *steps, *pauseBudget, seedTr)
		doc.Seeds = append(doc.Seeds, res)
		if res.Error == "" && res.ReplayIdentical {
			doc.Passed++
			fmt.Printf("seed %4d: ok    cycles=%d injected=%d rollbacks=%d retries=%d pins=%d\n",
				seed, res.Cycles, res.Injected, res.Rollbacks, res.Retries, res.Pins)
			fmt.Printf("           pause p99 %.0f -> %.0f (max %d <= bound %d), chaos max %d rollbacks %d\n",
				res.UnboundedP99, res.BoundedP99, res.BoundedMax, res.PauseBound,
				res.ChaosMax, res.ChaosRollbacks)
		} else {
			doc.Failed++
			fmt.Printf("seed %4d: FAIL  %s\n", seed, res.Error)
		}
	}

	if traceClose != nil {
		if err := traceClose(); err != nil {
			fmt.Fprintln(os.Stderr, "soak: trace:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		werr := enc.Encode(&doc)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "soak:", werr)
			os.Exit(1)
		}
	}

	fmt.Printf("soak: %d passed, %d failed (seeds %d..%d, %d steps)\n",
		doc.Passed, doc.Failed, first, first+int64(count)-1, *steps)
	if doc.Failed > 0 {
		for _, s := range doc.Seeds {
			if s.Error != "" || !s.ReplayIdentical {
				fmt.Printf("replay: go run ./scripts/soak -seed %d -steps %d -trace seed%d.trace.json\n",
					s.Seed, *steps, s.Seed)
			}
		}
		os.Exit(1)
	}
}
