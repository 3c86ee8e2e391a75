package kernel

// PagingModel reproduces the measurement methodology behind Table 2: the
// static footprint / initial mapping / dynamic paging capture that the
// paper performs with ELF inspection, a preload library, and an MMU-notifier
// kernel module. The VM feeds it the running program's page touches; the
// model applies Linux-like demand paging (first touch allocates) and a
// configurable rare-migration policy (NUMA balancing, compaction, KSM) that
// generates the paper's "incredibly rare" page-move events.
type PagingModel struct {
	// StaticFootprintPages is the LOAD-section page count (code + data +
	// bss + initial stack): what the kernel is obligated to eventually
	// allocate (§3 "static footprint capture").
	StaticFootprintPages uint64
	// InitialPages is the resident page count right after exec()
	// ("initial mapping capture").
	InitialPages uint64

	// PageAllocs counts demand-paging allocations (first touches plus the
	// initial mapping), matching the paper's accounting where COW and
	// demand-zero faults count as allocations.
	PageAllocs uint64
	// PageMoves counts kernel-initiated migrations of mapped pages.
	PageMoves uint64

	// Migrator, when non-nil, is consulted after every demand allocation
	// and decides whether a rare kernel-initiated migration (NUMA
	// balancing, compaction, KSM) fires. The paper measures between 0 and
	// 52 moves over entire benchmark runs; mmpolicy.RareMigration is the
	// standard implementation.
	Migrator Migrator

	resident map[uint64]struct{}
}

// Migrator is the policy hook behind the paging model's rare-migration
// events: Due is called with the cumulative demand-allocation count and
// reports whether a migration should fire now. The same interface paces
// the VM's move injection, so the Table 2 model and the Figure 9 injector
// share one policy mechanism.
type Migrator interface {
	Due(now uint64) bool
}

// MigratorFunc adapts a plain function to the Migrator interface.
type MigratorFunc func(now uint64) bool

// Due implements Migrator.
func (f MigratorFunc) Due(now uint64) bool { return f(now) }

// NewPagingModel creates a model with the given static footprint and
// initial resident set (both in pages). The initial pages count as
// allocations, as they do in the paper's methodology.
func NewPagingModel(staticPages, initialPages uint64) *PagingModel {
	m := &PagingModel{
		StaticFootprintPages: staticPages,
		InitialPages:         initialPages,
		resident:             make(map[uint64]struct{}),
	}
	for p := uint64(0); p < initialPages; p++ {
		m.resident[p] = struct{}{}
	}
	m.PageAllocs = initialPages
	return m
}

// Touch records an access to the page containing addr. A first touch is a
// demand-paging allocation; the Migrator may additionally decide it
// triggers a migration event.
func (m *PagingModel) Touch(addr uint64) {
	page := addr / PageSize
	if _, ok := m.resident[page]; ok {
		return
	}
	m.resident[page] = struct{}{}
	m.PageAllocs++
	if m.Migrator != nil && m.Migrator.Due(m.PageAllocs) {
		m.PageMoves++
	}
}
