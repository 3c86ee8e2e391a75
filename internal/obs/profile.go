package obs

import "sort"

// Category buckets a modeled cycle by what the machine was doing when it
// was spent. The VM interpreter attributes every cycle it charges to
// exactly one category, replacing the old opaque single total: compute is
// the application's own work, guard/tracking are CARAT's compiler- and
// runtime-injected overheads, pagewalk/pagefault are the traditional-VM
// costs CARAT removes, and protocol is the kernel-initiated move protocol
// (Table 3's subject).
type Category int

// The cycle categories, in presentation order.
const (
	CatCompute Category = iota
	CatGuard
	CatTracking
	CatPagewalk
	CatPageFault
	CatProtocol
	CatAlloc
	NumCategories
)

// categoryCounters are the counters Publish adds the categories to; a
// category's name is its counter's last segment.
var categoryCounters = [NumCategories]string{
	"carat.vm.cycles.compute", "carat.vm.cycles.guard", "carat.vm.cycles.tracking",
	"carat.vm.cycles.pagewalk", "carat.vm.cycles.pagefault", "carat.vm.cycles.protocol",
	"carat.vm.cycles.alloc",
}

// String names the category (used as a metric-name suffix).
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return "unknown"
	}
	return categoryCounters[c][len("carat.vm.cycles."):]
}

// FuncProfile accumulates per-function interpreter costs.
type FuncProfile struct {
	Name   string `json:"name"`
	Calls  uint64 `json:"calls"`
	Instrs uint64 `json:"instrs"`
	Cycles uint64 `json:"cycles"`
}

// CycleProfile is the VM's cycle-attribution profile: a per-category
// breakdown plus per-function compute costs. It is owned by a single VM
// and updated from the interpreter loop without synchronization, so it
// adds no atomics to the hot path. Function buckets are indexed by the
// module's function index; names join them only when a report asks.
type CycleProfile struct {
	Cat   [NumCategories]uint64
	names []string
	funcs []FuncProfile
}

// NewCycleProfile returns an empty profile with one bucket per name, in the
// module's function order; names is only read, so profiles may share it.
func NewCycleProfile(names []string) *CycleProfile {
	return &CycleProfile{names: names, funcs: make([]FuncProfile, len(names))}
}

// Func returns function i's bucket. The pointer is stable; the VM resolves
// it once per function, on the function's first call.
func (p *CycleProfile) Func(i int) *FuncProfile { return &p.funcs[i] }

// Total returns the sum over all categories.
func (p *CycleProfile) Total() uint64 {
	var t uint64
	for _, c := range p.Cat {
		t += c
	}
	return t
}

// Funcs returns the per-function buckets, named, sorted by descending
// cycles (ties broken by name for determinism).
func (p *CycleProfile) Funcs() []*FuncProfile {
	out := make([]*FuncProfile, len(p.funcs))
	for i := range p.funcs {
		p.funcs[i].Name = p.names[i]
		out[i] = &p.funcs[i]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByCategory returns the breakdown as a name→cycles map.
func (p *CycleProfile) ByCategory() map[string]uint64 {
	m := make(map[string]uint64, NumCategories)
	for c := Category(0); c < NumCategories; c++ {
		if p.Cat[c] > 0 {
			m[c.String()] = p.Cat[c]
		}
	}
	return m
}

// CycleBreakdown is a profile as a report carries it.
type CycleBreakdown struct {
	Categories map[string]uint64 `json:"categories"`
	Functions  []*FuncProfile    `json:"functions,omitempty"`
}

// Breakdown returns the profile's categories and named function buckets.
func (p *CycleProfile) Breakdown() CycleBreakdown {
	return CycleBreakdown{p.ByCategory(), p.Funcs()}
}

// Publish adds carat.vm.cycles.<category> for every category that charged
// a cycle, plus carat.vm.cycles.total, into s.
func (p *CycleProfile) Publish(s Sink) {
	for c, n := range p.Cat {
		if n > 0 {
			s.Add(categoryCounters[c], n)
		}
	}
	s.Add("carat.vm.cycles.total", p.Total())
}
