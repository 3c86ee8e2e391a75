package kernel

import (
	"testing"

	"carat/internal/fault"
	"carat/internal/guard"
)

// recordingHandler is a MoveHandler that negotiates and immediately
// vetoes, capturing what the kernel passed it.
type recordingHandler struct {
	moves     int
	negotiate bool // call NegotiateDst before vetoing
	lastErr   error
}

func (h *recordingHandler) HandleMove(req MoveRequest) (MoveResult, error) {
	h.moves++
	if h.negotiate {
		if _, err := req.NegotiateDst(req.Src, req.Pages); err != nil {
			h.lastErr = err
			req.Veto()
			return MoveResult{}, err
		}
	}
	req.Veto()
	return MoveResult{}, errAlwaysVeto
}

func (h *recordingHandler) HandleProtect(apply func() error) error { return apply() }

var errAlwaysVeto = &fault.Error{Point: "test.veto", Detail: "handler refuses"}

func TestRequestMoveWithoutHandler(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	if _, err := p.RequestMove(PageSize, 1); err == nil {
		t.Fatal("RequestMove without a registered runtime must fail")
	}
	if k.Stats.PageMoves.Get() != 0 {
		t.Error("failed move counted pages moved")
	}
}

func TestRequestMoveUnalignedSource(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	h := &recordingHandler{}
	p.Handler = h
	if _, err := p.RequestMove(PageSize+8, 1); err == nil {
		t.Fatal("unaligned move source must be rejected")
	}
	if h.moves != 0 {
		t.Error("unaligned request reached the handler")
	}
}

func TestVetoAccounting(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	p.Handler = &recordingHandler{}
	for i := 0; i < 3; i++ {
		if _, err := p.RequestMove(PageSize, 1); err == nil {
			t.Fatal("vetoing handler reported success")
		}
	}
	if got := k.Stats.MoveVetoes.Get(); got != 3 {
		t.Errorf("carat.kernel.move_vetoes = %d, want 3", got)
	}
	if k.Stats.PageMoves.Get() != 0 {
		t.Error("vetoed moves counted pages moved")
	}
}

// TestInjectedKernelVeto verifies an armed kernel.veto_move fault fails
// destination negotiation without leaking frames or region-set entries,
// and flows into the veto accounting.
func TestInjectedKernelVeto(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	h := &recordingHandler{negotiate: true}
	p.Handler = h
	if _, err := p.GrantRegion(PageSize, guard.PermRW); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1, k.Obs)
	k.SetInjector(inj)

	freeBefore := k.Alloc.FreePages()
	regionsBefore := len(p.Regions.Regions())
	inj.Arm(fault.KernelVeto, 1)
	if _, err := p.RequestMove(PageSize, 1); err == nil {
		t.Fatal("injected veto did not fail the move")
	}
	if !fault.Injected(h.lastErr) {
		t.Fatalf("negotiation error is not the injected fault: %v", h.lastErr)
	}
	if got := k.Alloc.FreePages(); got != freeBefore {
		t.Errorf("free pages = %d, want %d (vetoed negotiation leaked frames)", got, freeBefore)
	}
	if got := len(p.Regions.Regions()); got != regionsBefore {
		t.Errorf("regions = %d, want %d (vetoed negotiation leaked a region)", got, regionsBefore)
	}
	if k.Stats.MoveVetoes.Get() != 1 {
		t.Errorf("move vetoes = %d, want 1", k.Stats.MoveVetoes.Get())
	}
	if k.Obs.Counter("carat.fault.injected.kernel.veto_move").Get() != 1 {
		t.Error("per-point fault counter not advanced")
	}
}

// TestAbortDstReturnsNegotiatedRange verifies AbortDst undoes exactly
// what NegotiateDst did: the destination leaves the region set and its
// frames return to the allocator.
func TestAbortDstReturnsNegotiatedRange(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	base, err := p.GrantRegion(PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := k.Alloc.FreePages()
	regionsBefore := len(p.Regions.Regions())

	req := &MoveRequest{Src: base, Pages: 1, kernel: k, proc: p}
	dst, err := req.NegotiateDst(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Regions.Find(dst); !ok {
		t.Fatal("negotiated destination not in region set")
	}
	if err := req.AbortDst(dst, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Regions.Find(dst); ok {
		t.Error("aborted destination still in region set")
	}
	if got := k.Alloc.FreePages(); got != freeBefore {
		t.Errorf("free pages = %d, want %d", got, freeBefore)
	}
	if got := len(p.Regions.Regions()); got != regionsBefore {
		t.Errorf("regions = %d, want %d", got, regionsBefore)
	}
}
