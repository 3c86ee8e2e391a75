package server

import (
	"log"
	"time"

	"carat/internal/mmpolicy"
	"carat/internal/obs"
)

// BallastConfig switches the background mmpolicy service. The ballast is a
// set of synthetic workload processes (churn, stream, coldstore) managed
// by the policy daemon on the SAME kernel that serves tenant requests:
// the daemon's defragmentation, tiering, and isolation windows genuinely
// contend with tenant page grants, while its moves and swaps stay scoped
// to the ballast processes — tenant runs are never relocated, which keeps
// their modeled results byte-identical under any interleaving.
type BallastConfig struct {
	// Disabled turns the background service off entirely.
	Disabled bool `json:"disabled"`
}

// The ballast's shape: its three workload processes' slots (slot = one
// pointer to a stamped allocation), the daemon's wake interval on the
// harness's modeled clock, the workload rounds run between checks of the
// stop channel, the batches between full stamp-integrity verifications,
// the sleep between batches — so the ballast competes with tenant traffic
// without monopolizing a host core — and the workloads' allocation seed.
const (
	ballastChurnSlots  = 48
	ballastStreamSlots = 12
	ballastColdSlots   = 12
	ballastTickEvery   = 50_000
	ballastStepBatch   = 32
	ballastVerifyEvery = 64
	ballastPace        = 200 * time.Microsecond
	ballastSeed        = 1
)

// ballast runs the mmpolicy harness as a long-lived background goroutine.
type ballast struct {
	h    *mmpolicy.Harness
	stop chan struct{}
	done chan struct{}

	steps      *obs.Counter
	violations *obs.Counter
}

func (s *Server) newBallast() (*ballast, error) {
	h, err := mmpolicy.NewHarness(mmpolicy.HarnessConfig{
		Kernel:    s.kern,
		TickEvery: ballastTickEvery,
		Procs: []mmpolicy.ProcSpec{
			{Name: "ballast-churn", Kind: mmpolicy.Churn, Slots: ballastChurnSlots, MaxPages: 4, Seed: ballastSeed},
			{Name: "ballast-stream", Kind: mmpolicy.Stream, Slots: ballastStreamSlots, MaxPages: 2, Seed: ballastSeed + 1},
			{Name: "ballast-cold", Kind: mmpolicy.ColdStore, Slots: ballastColdSlots, MaxPages: 2, Seed: ballastSeed + 2},
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
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		steps:      s.reg.Counter("carat.server.ballast_steps"),
		violations: s.reg.Counter("carat.server.invariant_violations"),
	}, nil
}

// run is the service loop: workload rounds interleaved with daemon ticks,
// a full integrity verification every ballastVerifyEvery batches, and a final
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
		if err := b.h.Run(ballastStepBatch); err != nil {
			log.Printf("caratd: ballast harness error: %v", err)
			b.violations.Inc()
			b.verify()
			return
		}
		b.steps.Add(ballastStepBatch)
		batches++
		if batches%ballastVerifyEvery == 0 {
			b.verify()
		}
		time.Sleep(ballastPace)
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
