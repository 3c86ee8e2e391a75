// Command soak runs seeded chaos soak tests: multi-process
// churn/defrag/tiering/swap workloads under randomized fault schedules
// (see internal/fault). For every seed it runs the identical workload
// TWICE and requires the two runs to be byte-identical — same final
// cycle count, same metrics snapshot, same policy decision log, same
// physical-memory checksum — and requires the harness integrity check
// and the allocation-table invariants to hold. A failure therefore comes
// with its reproducer: the seed.
//
// Usage:
//
//	go run ./scripts/soak -seeds 32              # seeds 1..32
//	go run ./scripts/soak -seeds 32 -start 97    # rotating window (CI)
//	go run ./scripts/soak -seed 17 -steps 400    # replay one seed
//	go run ./scripts/soak -seed 17 -trace t.json # with a Chrome trace
//	go run ./scripts/soak -seeds 8 -out soak.json
//
// The report is a versioned carat.soak.result v3 JSON document
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
	Version = 3
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

	// PauseP99 is the p99 of the run's world stops (carat.runtime.pause_cycles).
	PauseP99 float64 `json:"pause_p99"`

	ReplayIdentical bool   `json:"replay_identical"`
	Error           string `json:"error,omitempty"`
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

// digest is everything a replay must reproduce byte-for-byte.
type digest struct {
	cycles  uint64
	memSum  uint64
	metrics []byte // registry snapshot JSON (sorted keys)
	policy  []byte // carat.policy decision document JSON
}

// runSeed executes one soak run: build the machine, thread the seeded
// injector through every layer, run the workloads, verify integrity, and
// return the digest. trace, when non-nil, receives the run's events.
func runSeed(seed int64, steps int, rates map[fault.Point]float64, tr *obs.Tracer) (digest, SeedResult, error) {
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
		Obs:   reg,
		Trace: tr,
		Fault: inj,
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
	d := digest{
		cycles:  h.Cycles,
		memSum:  h.K.Mem.Checksum(),
		metrics: metrics.Bytes(),
		policy:  policy.Bytes(),
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
		PauseP99:    reg.Histogram(runtime.PauseHist).Snapshot().P99,
	}
	res.Rates = make(map[string]float64, len(rates))
	for p, r := range rates {
		res.Rates[string(p)] = r
	}
	return d, res, nil
}

// soakSeed runs one seed's workload under its fault schedule twice and
// byte-compares the two runs.
func soakSeed(seed int64, steps int, tr *obs.Tracer) SeedResult {
	rates := schedule(seed)
	d1, res, err := runSeed(seed, steps, rates, tr)
	if err != nil {
		return SeedResult{Seed: seed, Steps: steps, Error: err.Error()}
	}
	d2, _, err := runSeed(seed, steps, rates, nil)
	switch {
	case err != nil:
		res.Error = fmt.Sprintf("replay: %v", err)
	case d1.cycles != d2.cycles:
		res.Error = fmt.Sprintf("replay diverged: cycles %d vs %d", d1.cycles, d2.cycles)
	case d1.memSum != d2.memSum:
		res.Error = fmt.Sprintf("replay diverged: memory %016x vs %016x", d1.memSum, d2.memSum)
	case !bytes.Equal(d1.metrics, d2.metrics):
		res.Error = "replay diverged: metrics snapshots differ"
	case !bytes.Equal(d1.policy, d2.policy):
		res.Error = "replay diverged: policy decision logs differ"
	}
	res.ReplayIdentical = res.Error == ""
	return res
}

func main() {
	seeds := flag.Int("seeds", 8, "number of consecutive seeds to soak")
	start := flag.Int64("start", 1, "first seed (CI rotates this nightly)")
	one := flag.Int64("seed", 0, "run exactly this seed (overrides -seeds/-start)")
	steps := flag.Int("steps", 400, "workload rounds per run")
	out := flag.String("out", "", "write the carat.soak.result JSON report here")
	traceFile := flag.String("trace", "", "write a Chrome trace of the first run of the first seed")
	flag.Parse()

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
		res := soakSeed(seed, *steps, seedTr)
		doc.Seeds = append(doc.Seeds, res)
		if res.Error == "" && res.ReplayIdentical {
			doc.Passed++
			fmt.Printf("seed %4d: ok    cycles=%d injected=%d rollbacks=%d retries=%d pins=%d pause_p99=%.0f\n",
				seed, res.Cycles, res.Injected, res.Rollbacks, res.Retries, res.Pins, res.PauseP99)
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
