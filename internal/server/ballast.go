package server

import (
	"log"
	"time"

	"carat/internal/mmpolicy"
	"carat/internal/obs"
)

// BallastConfig sizes the background mmpolicy service. The ballast is a
// set of synthetic workload processes (churn, stream, coldstore) managed
// by the policy daemon on the SAME kernel that serves tenant requests:
// the daemon's defragmentation, tiering, and isolation windows genuinely
// contend with tenant page grants, while its moves and swaps stay scoped
// to the ballast processes — tenant runs are never relocated, which keeps
// their modeled results byte-identical under any interleaving.
type BallastConfig struct {
	// Disabled turns the background service off entirely.
	Disabled bool `json:"disabled"`
	// ChurnSlots/StreamSlots/ColdSlots size the three workload processes
	// (slot = one pointer to a stamped allocation). Zero picks defaults.
	ChurnSlots  int `json:"churn_slots"`
	StreamSlots int `json:"stream_slots"`
	ColdSlots   int `json:"cold_slots"`
	// TickEvery is the daemon's wake interval on the harness's modeled
	// clock; StepBatch is how many workload rounds run between checks of
	// the stop channel; VerifyEvery counts batches between full
	// stamp-integrity verifications. Zero picks defaults.
	TickEvery   uint64 `json:"tick_every"`
	StepBatch   int    `json:"step_batch"`
	VerifyEvery int    `json:"verify_every"`
	// Pace sleeps this long between batches so the ballast competes with
	// tenant traffic without monopolizing a host core.
	Pace time.Duration `json:"-"`
	// Seed drives the workloads' allocation randomness.
	Seed int64 `json:"seed"`
}

func (c BallastConfig) withDefaults() BallastConfig {
	if c.ChurnSlots == 0 {
		c.ChurnSlots = 48
	}
	if c.StreamSlots == 0 {
		c.StreamSlots = 12
	}
	if c.ColdSlots == 0 {
		c.ColdSlots = 12
	}
	if c.TickEvery == 0 {
		c.TickEvery = 50_000
	}
	if c.StepBatch == 0 {
		c.StepBatch = 32
	}
	if c.VerifyEvery == 0 {
		c.VerifyEvery = 64
	}
	if c.Pace == 0 {
		c.Pace = 200 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ballast runs the mmpolicy harness as a long-lived background goroutine.
type ballast struct {
	h    *mmpolicy.Harness
	cfg  BallastConfig
	stop chan struct{}
	done chan struct{}

	steps      *obs.Counter
	violations *obs.Counter
}

func (s *Server) newBallast(cfg BallastConfig) (*ballast, error) {
	cfg = cfg.withDefaults()
	h, err := mmpolicy.NewHarness(mmpolicy.HarnessConfig{
		Kernel:    s.kern,
		TickEvery: cfg.TickEvery,
		Procs: []mmpolicy.ProcSpec{
			{Name: "ballast-churn", Kind: mmpolicy.Churn, Slots: cfg.ChurnSlots, MaxPages: 4, Seed: cfg.Seed},
			{Name: "ballast-stream", Kind: mmpolicy.Stream, Slots: cfg.StreamSlots, MaxPages: 2, Seed: cfg.Seed + 1},
			{Name: "ballast-cold", Kind: mmpolicy.ColdStore, Slots: cfg.ColdSlots, MaxPages: 2, Seed: cfg.Seed + 2},
		},
		Policies: []mmpolicy.Policy{
			mmpolicy.NewDefrag(64),
			mmpolicy.NewTiering(),
			mmpolicy.NewNUMARebalance(),
		},
	})
	if err != nil {
		return nil, err
	}
	return &ballast{
		h:          h,
		cfg:        cfg,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		steps:      s.reg.Counter("carat.server.ballast_steps"),
		violations: s.reg.Counter("carat.server.invariant_violations"),
	}, nil
}

// run is the service loop: workload rounds interleaved with daemon ticks,
// a full integrity verification every VerifyEvery batches, and a final
// verification at shutdown. Every violation increments the counter that
// Drain inspects — caratd exits nonzero if any occurred.
func (b *ballast) run() {
	defer close(b.done)
	batches := 0
	for {
		select {
		case <-b.stop:
			b.verify()
			return
		default:
		}
		if err := b.h.Run(b.cfg.StepBatch); err != nil {
			log.Printf("caratd: ballast harness error: %v", err)
			b.violations.Inc()
			b.verify()
			return
		}
		b.steps.Add(uint64(b.cfg.StepBatch))
		batches++
		if batches%b.cfg.VerifyEvery == 0 {
			b.verify()
		}
		if b.cfg.Pace > 0 {
			time.Sleep(b.cfg.Pace)
		}
	}
}

func (b *ballast) verify() {
	if err := b.h.Verify(); err != nil {
		log.Printf("caratd: ballast invariant violation: %v", err)
		b.violations.Inc()
	}
}

// halt stops the loop and waits for the final verification.
func (b *ballast) halt() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	<-b.done
}
