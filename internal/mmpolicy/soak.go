package mmpolicy

import (
	"bytes"
	"fmt"
	"math/rand"

	"carat/internal/fault"
	"carat/internal/obs"
	"carat/internal/runtime"
)

// Soak report schema identifiers (see DESIGN.md "Observability"). Bump
// SoakVersion on any incompatible field change; v3 drops the pause-budget
// fields (a move or swap is always one stop).
const (
	SoakSchema  = "carat.soak.result"
	SoakVersion = 3
)

// SoakSeedResult is one seed's outcome: the fault schedule it ran under, the
// replay digest, and what the faults exercised.
type SoakSeedResult struct {
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

// SoakDocument is the carat.soak.result report: one entry per seed.
type SoakDocument struct {
	Schema  string           `json:"schema"`
	Version int              `json:"version"`
	Steps   int              `json:"steps"`
	Seeds   []SoakSeedResult `json:"seeds"`
	Passed  int              `json:"passed"`
	Failed  int              `json:"failed"`
}

// Per-point rate ceilings for the randomized schedules. The recovery
// paths are bounded (move retries pin after 4 failures, swap-in retries
// cap at 16 attempts), so the ceilings are chosen to keep exhausting a
// retry bound out of reach while still firing every point constantly:
// e.g. sixteen consecutive swap-in failures at rate 0.3 is ~4e-9.
var soakRateCeilings = map[fault.Point]float64{
	fault.KernelVeto: 0.20,
	fault.MoveAbort:  0.15,
	fault.PatchFail:  0.05,
	fault.SwapOutIO:  0.20,
	fault.SwapInIO:   0.30,
	fault.SwapDelay:  0.30,
	fault.FlushFail:  0.20,
}

// soakSchedule derives a per-point rate schedule from the seed: every point
// gets a rate in [0, ceiling), with a point occasionally disabled
// entirely so zero-rate paths are exercised too.
func soakSchedule(seed int64) map[fault.Point]float64 {
	rng := rand.New(rand.NewSource(seed))
	rates := make(map[fault.Point]float64, len(fault.Points))
	for _, p := range fault.Points {
		if rng.Float64() < 0.15 {
			continue // this point stays quiet for the whole seed
		}
		rates[p] = rng.Float64() * soakRateCeilings[p]
	}
	return rates
}

// soakDigest is everything a replay must reproduce byte-for-byte.
type soakDigest struct {
	cycles  uint64
	memSum  uint64
	metrics []byte // registry snapshot JSON (sorted keys)
	policy  []byte // carat.policy decision document JSON
}

// soakRun executes one soak run: build the machine, thread the seeded
// injector through every layer, run the workloads, verify integrity, and
// return the digest. trace, when non-nil, receives the run's events.
func soakRun(seed int64, steps int, rates map[fault.Point]float64, tr *obs.Tracer) (soakDigest, SoakSeedResult, error) {
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
	h, err := NewHarness(HarnessConfig{
		MemBytes:  1 << 21, // 512 pages
		TickEvery: 40_000,
		Procs: []ProcSpec{
			{Name: "churn-a", Kind: Churn, Slots: 64 + prng.Intn(64), MaxPages: 4, Seed: prng.Int63()},
			{Name: "churn-b", Kind: Churn, Slots: 64 + prng.Intn(64), MaxPages: 3, Seed: prng.Int63()},
			{Name: "stream", Kind: Stream, Slots: 8 + prng.Intn(8), MaxPages: 2, Seed: prng.Int63()},
			{Name: "cold", Kind: ColdStore, Slots: 32 + prng.Intn(32), MaxPages: 2, Seed: prng.Int63()},
		},
		Policies: []Policy{
			NewDefrag(64),
			NewTiering(),
			NewNUMARebalance(),
		},
		Obs:   reg,
		Trace: tr,
		Fault: inj,
	})
	if err != nil {
		return soakDigest{}, SoakSeedResult{}, err
	}
	if err := h.Run(steps); err != nil {
		return soakDigest{}, SoakSeedResult{}, fmt.Errorf("run: %w", err)
	}
	// Integrity: every slot still reaches its stamped allocation, and the
	// allocation-table invariants hold unconditionally (CheckInvariants,
	// not the caratdebug-gated variant — the soak always checks).
	if err := h.Verify(); err != nil {
		return soakDigest{}, SoakSeedResult{}, fmt.Errorf("integrity: %w", err)
	}
	for _, wp := range h.Procs {
		if err := wp.MP.RT.Table.CheckInvariants(); err != nil {
			return soakDigest{}, SoakSeedResult{}, fmt.Errorf("invariants (%s): %w", wp.Spec.Name, err)
		}
	}

	var metrics bytes.Buffer
	if err := reg.WriteJSON(&metrics); err != nil {
		return soakDigest{}, SoakSeedResult{}, err
	}
	var policy bytes.Buffer
	if err := h.D.Report().WriteJSON(&policy); err != nil {
		return soakDigest{}, SoakSeedResult{}, err
	}
	d := soakDigest{
		cycles:  h.Cycles,
		memSum:  h.K.Mem.Checksum(),
		metrics: metrics.Bytes(),
		policy:  policy.Bytes(),
	}
	res := SoakSeedResult{
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

// SoakSeed is a chaos soak of one seed: multi-process churn, defrag,
// tiering and swap under the seed's randomized fault schedule (see
// internal/fault), run twice. The two runs must agree byte for byte — final
// cycle count, metrics snapshot, policy decision log, physical-memory
// checksum — and the harness integrity check and the allocation-table
// invariants must hold; a failure comes with its reproducer, the seed. tr,
// when non-nil, receives the first run's events.
func SoakSeed(seed int64, steps int, tr *obs.Tracer) SoakSeedResult {
	rates := soakSchedule(seed)
	d1, res, err := soakRun(seed, steps, rates, tr)
	if err != nil {
		return SoakSeedResult{Seed: seed, Steps: steps, Error: err.Error()}
	}
	d2, _, err := soakRun(seed, steps, rates, nil)
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
