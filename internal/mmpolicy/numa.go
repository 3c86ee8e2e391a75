package mmpolicy

import (
	"carat/internal/guard"
	"carat/internal/kernel"
)

// NUMARebalance migrates a process's memory onto its first-touch home
// node (§7 "migration between NUMA zones"). The model splits physical
// memory into two nodes at the halfway page; a process's home is fixed by
// its first recorded access. Each tick the policy finds regions resident
// off-node and moves them, steering the destination with the allocator's
// placement preference.
type NUMARebalance struct {
	// MaxMovesPerTick bounds migration work per wakeup.
	MaxMovesPerTick int

	regions []guard.Region // Tick's snapshot of a region set, reused
}

// NewNUMARebalance returns a NUMA rebalancing policy.
func NewNUMARebalance() *NUMARebalance {
	return &NUMARebalance{MaxMovesPerTick: 4}
}

// Name implements Policy.
func (p *NUMARebalance) Name() string { return "numa" }

// Tick implements Policy.
func (p *NUMARebalance) Tick(d *Daemon, now uint64) error {
	moves := 0
	for _, mp := range d.procs {
		home := mp.Home()
		if home < 0 {
			continue
		}
		start, pages := d.nodePages(home)
		lo, hi := start*kernel.PageSize, (start+pages)*kernel.PageSize
		// Snapshot: RequestMove mutates the region set mid-iteration.
		regions := append(p.regions[:0], mp.Proc.Regions.Regions()...)
		p.regions = regions
		d.chargeScan(uint64(len(regions)) * cycPerPageScan)
		for _, reg := range regions {
			if moves >= p.MaxMovesPerTick {
				return nil
			}
			if reg.Base >= lo && reg.End() <= hi {
				continue // already resident on the home node
			}
			d.K.Alloc.Prefer(start, pages)
			res, ok := d.tryMove(mp, p.Name(), reg.Base, (reg.Len+kernel.PageSize-1)/kernel.PageSize, now)
			d.K.Alloc.ClearPreference()
			if !ok {
				continue
			}
			moves++
			bd := lastBreakdown(mp.RT)
			reason := "numa rebalance"
			if d.node(res.Dst) != home {
				// The home node had no room; the move landed off-node.
				// Count it as work done but flag the miss.
				reason = "numa rebalance (off-node fallback)"
			}
			d.record(now, p.Name(), ActionMove, mp.Name, res.Src, res.Pages,
				bd.TotalCycles(), reason)
			d.stats.NUMAMoves.Inc()
		}
	}
	return nil
}
