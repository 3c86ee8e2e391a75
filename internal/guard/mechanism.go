package guard

import "fmt"

// Mechanism selects a guard implementation strategy (§3 "Protection can be
// Maintained through Other Mechanisms", Figures 3 and 4).
type Mechanism int

// The guard mechanisms.
const (
	// MechRange is the straightforward compare-and-branch bounds check
	// ("Range Guard" in Figure 3). For multi-region sets it degenerates to
	// MechBinarySearch.
	MechRange Mechanism = iota
	// MechMPX models Intel MPX's single-cycle bounds-check instruction
	// ("MPX Guard" in Figure 3): one cycle, no register pressure, as long
	// as the region fits the bounds registers.
	MechMPX
	// MechBinarySearch searches the sorted region array (Figure 4a).
	MechBinarySearch
	// MechIfTree is the statically laid out comparison tree (Figure 4).
	MechIfTree
	// MechLinear scans regions in order; the baseline worst case.
	MechLinear
)

// String names the mechanism.
func (m Mechanism) String() string {
	switch m {
	case MechRange:
		return "range"
	case MechMPX:
		return "mpx"
	case MechBinarySearch:
		return "bsearch"
	case MechIfTree:
		return "iftree"
	case MechLinear:
		return "linear"
	}
	return fmt.Sprintf("mech(%d)", int(m))
}

// Cycle cost constants of the microarchitectural model. The values follow
// the paper's observations: an MPX bounds check is single-cycle; a
// compare+branch pair costs a couple of cycles when predicted and a
// pipeline refill (~14 cycles on Haswell-class cores) when mispredicted.
const (
	costCmpBranch   = 1  // predicted compare+branch
	costMispredict  = 14 // branch mispredict penalty
	costMPX         = 1  // bndcu/bndcl pair, fused
	costLoadRegion  = 2  // L1 hit loading a region descriptor
	costSearchSetup = 2  // index arithmetic per search step
)

// Evaluator performs guard checks against a region set with a chosen
// mechanism, accumulating a modeled cycle cost. It carries branch-history
// state so repeated (strided) access patterns predict well while random
// patterns mispredict, reproducing the spread in Figure 4.
type Evaluator struct {
	Mech Mechanism
	Set  *RegionSet

	// Cycles accumulates the modeled cost of all checks.
	Cycles uint64
	// Checks counts guard evaluations.
	Checks uint64
	// Faults counts failed checks.
	Faults uint64

	// branch history: last direction taken at each comparison site.
	// lpBits mirrors lastPath[0:64] as a bitset (bit idx set == true) so
	// the xcache hit path can test "recorded path still matches history"
	// with one mask compare instead of a replay loop; every write to
	// lastPath below index 64 must keep it in sync, and both resets that
	// reallocate lastPath zero it.
	lastPath  []bool
	lpBits    uint64
	treeEpoch uint64
	tree      []treeNode

	// recording state for CheckCached: while recOn, the search mechanisms
	// append their branch path to recSteps and count mispredicts in
	// recMisp, so the xcache can replay the walk's exact cost later.
	recOn    bool
	recSteps []pathStep
	recMisp  int
}

// NewEvaluator returns an evaluator over set using mech.
func NewEvaluator(mech Mechanism, set *RegionSet) *Evaluator {
	return &Evaluator{Mech: mech, Set: set}
}

// treeNode is one comparison node of the static if-tree.
type treeNode struct {
	boundary    uint64 // go left if addr < boundary
	left, right int    // child indices; negative encodes ^region leaf
}

// buildTree lays out a balanced comparison tree over region boundaries.
func (e *Evaluator) buildTree() {
	e.tree = e.tree[:0]
	var build func(lo, hi int) int
	build = func(lo, hi int) int {
		if lo == hi {
			return -(lo + 1) // leaf: region index lo
		}
		mid := (lo + hi) / 2
		idx := len(e.tree)
		e.tree = append(e.tree, treeNode{boundary: e.Set.regions[mid].End()})
		l := build(lo, mid)
		r := build(mid+1, hi)
		e.tree[idx].left, e.tree[idx].right = l, r
		return idx
	}
	if e.Set.Len() > 0 {
		build(0, e.Set.Len()-1)
	}
	e.treeEpoch = e.Set.Epoch
	if n := len(e.tree); len(e.lastPath) < n {
		e.lastPath = make([]bool, n)
		e.lpBits = 0
	}
}

// Check validates the access and returns whether it is permitted. The
// modeled cycle cost of the check is added to e.Cycles.
func (e *Evaluator) Check(addr, size uint64, p Perm) bool {
	e.Checks++
	var ok bool
	var cost uint64
	switch e.Mech {
	case MechMPX:
		ok, cost = e.checkMPX(addr, size, p)
	case MechIfTree:
		ok, cost = e.checkIfTree(addr, size, p)
	case MechLinear:
		ok, cost = e.checkLinear(addr, size, p)
	case MechBinarySearch:
		ok, cost = e.checkBinary(addr, size, p)
	default: // MechRange
		if e.Set.Len() <= 1 {
			ok, cost = e.checkSingle(addr, size, p)
		} else {
			ok, cost = e.checkBinary(addr, size, p)
		}
	}
	e.Cycles += cost
	if !ok {
		e.Faults++
	}
	return ok
}

// checkSingle is the one-region fast path: two compares and the permission
// test. This is the "dark capsule" optimal case of §3.
func (e *Evaluator) checkSingle(addr, size uint64, p Perm) (bool, uint64) {
	if e.Set.Len() == 0 {
		return false, costCmpBranch
	}
	r := e.Set.regions[0]
	return r.Contains(addr, size) && r.Perm&p == p, 2 * costCmpBranch
}

// checkMPX models the MPX bounds-check instruction: single cycle against
// the bounds registers; with more regions than bounds registers (4 pairs)
// it falls back to binary search after the miss.
func (e *Evaluator) checkMPX(addr, size uint64, p Perm) (bool, uint64) {
	n := e.Set.Len()
	if n == 0 {
		return false, costMPX
	}
	if n <= 4 {
		for i := 0; i < n; i++ {
			if e.Set.regions[i].Contains(addr, size) {
				return e.Set.regions[i].Perm&p == p, costMPX
			}
		}
		return false, costMPX
	}
	ok, c := e.checkBinary(addr, size, p)
	return ok, c + costMPX
}

func (e *Evaluator) checkLinear(addr, size uint64, p Perm) (bool, uint64) {
	var cost uint64
	for _, r := range e.Set.regions {
		cost += costCmpBranch + costLoadRegion
		if r.Contains(addr, size) {
			return r.Perm&p == p, cost
		}
	}
	return false, cost
}

// checkBinary searches the sorted region array. Each step costs the index
// arithmetic, a descriptor load, and a compare+branch whose misprediction
// is modeled with per-depth branch history.
func (e *Evaluator) checkBinary(addr, size uint64, p Perm) (bool, uint64) {
	lo, hi := 0, e.Set.Len()-1
	var cost uint64
	depth := 0
	if len(e.lastPath) < 64 {
		e.lastPath = make([]bool, 64)
		e.lpBits = 0
	}
	for lo <= hi {
		mid := (lo + hi) / 2
		r := e.Set.regions[mid]
		cost += costSearchSetup + costLoadRegion + costCmpBranch
		goLeft := addr < r.Base
		if e.lastPath[depth] != goLeft {
			cost += costMispredict
			e.lastPath[depth] = goLeft
			e.lpBits ^= 1 << depth // depth < 64: lastPath is 64 long here
			if e.recOn {
				e.recMisp++
			}
		}
		if e.recOn {
			e.recSteps = append(e.recSteps, pathStep{idx: int32(depth), left: goLeft})
		}
		depth++
		switch {
		case goLeft:
			hi = mid - 1
		case addr >= r.End():
			lo = mid + 1
		default:
			return r.Contains(addr, size) && r.Perm&p == p, cost
		}
	}
	return false, cost
}

// checkIfTree walks the static comparison tree. Inner nodes are pure
// compare+branch (no descriptor loads — boundaries are immediates in the
// generated code), so a well-predicted walk is cheap; path changes pay the
// misprediction penalty, which is why random access in Figure 4 is an
// order of magnitude costlier than strided access.
func (e *Evaluator) checkIfTree(addr, size uint64, p Perm) (bool, uint64) {
	if e.treeEpoch != e.Set.Epoch || (len(e.tree) == 0 && e.Set.Len() > 0) {
		e.buildTree()
	}
	if e.Set.Len() == 0 {
		return false, costCmpBranch
	}
	if e.Set.Len() == 1 {
		return e.checkSingle(addr, size, p)
	}
	node := 0
	var cost uint64
	for {
		n := e.tree[node]
		cost += costCmpBranch
		goLeft := addr < n.boundary
		if e.lastPath[node] != goLeft {
			cost += costMispredict
			e.lastPath[node] = goLeft
			if node < 64 {
				e.lpBits ^= 1 << node
			}
			if e.recOn {
				e.recMisp++
			}
		}
		if e.recOn {
			e.recSteps = append(e.recSteps, pathStep{idx: int32(node), left: goLeft})
		}
		next := n.right
		if goLeft {
			next = n.left
		}
		if next < 0 {
			r := e.Set.regions[-next-1]
			cost += 2 * costCmpBranch // final range + perm test
			return r.Contains(addr, size) && r.Perm&p == p, cost
		}
		node = next
	}
}

// AvgCycles returns the mean modeled cycles per check.
func (e *Evaluator) AvgCycles() float64 {
	if e.Checks == 0 {
		return 0
	}
	return float64(e.Cycles) / float64(e.Checks)
}
