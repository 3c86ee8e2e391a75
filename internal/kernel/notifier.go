package kernel

import "carat/internal/obs"

// MMU-notifier-style event stream (§3 "dynamic paging capture"): the paper
// learns of Linux's paging activity through the MMU notifier interface,
// which reports PTE changes (a page's contents moved to a different frame)
// and range invalidations. The simulated kernel exposes the same stream so
// observers (the Table 2 accounting, tests, or external tooling) can watch
// paging activity without hooking the kernel's internals.

// MMUEventKind discriminates notifier events.
type MMUEventKind int

// The events the paper's methodology distinguishes (§3).
const (
	// EventPTEChange: a valid translation now points at a different
	// physical frame — a page move.
	EventPTEChange MMUEventKind = iota
	// EventInvalidateRange: a range of translations was invalidated
	// (protection change, unmap).
	EventInvalidateRange
	// EventAllocate: a previously-invalid page became valid (demand
	// paging; derived from address-space growth in the paper because the
	// notifier interface does not report it directly).
	EventAllocate
)

// String names the event kind.
func (k MMUEventKind) String() string {
	switch k {
	case EventPTEChange:
		return "pte-change"
	case EventInvalidateRange:
		return "invalidate"
	case EventAllocate:
		return "allocate"
	}
	return "unknown"
}

// MMUEvent is one notification.
type MMUEvent struct {
	Kind  MMUEventKind
	Base  uint64 // page-aligned start of the affected range
	Len   uint64 // bytes
	NewPA uint64 // EventPTEChange: the new physical base
}

// MMUNotifier receives paging events. Implementations must not call back
// into the kernel.
type MMUNotifier interface {
	Notify(ev MMUEvent)
}

// NotifierFunc adapts a function to MMUNotifier.
type NotifierFunc func(MMUEvent)

// Notify implements MMUNotifier.
func (f NotifierFunc) Notify(ev MMUEvent) { f(ev) }

// RegisterNotifier subscribes n to this process's paging events.
func (p *Process) RegisterNotifier(n MMUNotifier) {
	p.notifiers = append(p.notifiers, n)
}

func (p *Process) notify(ev MMUEvent) {
	// Invalidations and remaps are shootdowns: each delivery forces the
	// receivers (guard/translation caches, the TLB hierarchy) to drop
	// state — the kernel-side counterpart of the runtime's pause causes.
	if ev.Kind == EventInvalidateRange || ev.Kind == EventPTEChange {
		p.K.Stats.Shootdowns.Inc()
	}
	if tr := p.K.tr; tr != nil {
		tr.Instant("mmu."+ev.Kind.String(), "paging", obs.A("base", ev.Base), obs.A("len", ev.Len))
	}
	for _, n := range p.notifiers {
		n.Notify(ev)
	}
}

// EventLog is a convenience notifier that records every event.
type EventLog struct {
	Events []MMUEvent
}

// Notify implements MMUNotifier.
func (l *EventLog) Notify(ev MMUEvent) { l.Events = append(l.Events, ev) }

// Count returns how many events of kind k were observed.
func (l *EventLog) Count(k MMUEventKind) int {
	n := 0
	for _, ev := range l.Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}
