package obs

import (
	"encoding/json"
	"testing"
)

func TestCategoryNames(t *testing.T) {
	want := map[Category]string{
		CatCompute: "compute", CatGuard: "guard", CatTracking: "tracking",
		CatPagewalk: "pagewalk", CatPageFault: "pagefault",
		CatProtocol: "protocol", CatAlloc: "alloc",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	if Category(-1).String() != "unknown" || NumCategories.String() != "unknown" {
		t.Error("out-of-range category should be unknown")
	}
}

func TestCycleProfile(t *testing.T) {
	p := NewCycleProfile([]string{"main", "helper"})
	p.Cat[CatCompute] += 100
	p.Cat[CatGuard] += 20
	f := p.Func(0)
	f.Calls++
	f.Instrs += 10
	f.Cycles += 100
	g := p.Func(1)
	g.Cycles += 200
	if p.Func(0) != f {
		t.Fatal("Func lookup not stable")
	}
	if p.Total() != 120 {
		t.Fatalf("total = %d", p.Total())
	}
	funcs := p.Funcs()
	if len(funcs) != 2 || funcs[0].Name != "helper" || funcs[1].Name != "main" {
		t.Fatalf("funcs order = %+v", funcs)
	}
	bc := p.ByCategory()
	if bc["compute"] != 100 || bc["guard"] != 20 || len(bc) != 2 {
		t.Fatalf("by-category = %v", bc)
	}

	data, err := json.Marshal(p.Breakdown())
	if err != nil {
		t.Fatal(err)
	}
	var out CycleBreakdown
	if err := DecodeStrict(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Categories["compute"] != 100 || len(out.Functions) != 2 {
		t.Fatalf("marshal = %s", data)
	}

	reg := NewRegistry()
	reg.Publish(p.Publish)
	s := reg.Snapshot()
	if s.Counters["carat.vm.cycles.compute"] != 100 ||
		s.Counters["carat.vm.cycles.guard"] != 20 ||
		s.Counters["carat.vm.cycles.total"] != 120 {
		t.Fatalf("published = %v", s.Counters)
	}
	if _, ok := s.Counters["carat.vm.cycles.alloc"]; ok {
		t.Fatal("a category that charged nothing was published")
	}
	// Publish accumulates across runs.
	reg.Publish(p.Publish)
	if reg.Counter("carat.vm.cycles.total").Get() != 240 {
		t.Fatal("Publish should accumulate")
	}
}
