package analysis_test

// The analyses index dense tables by ir.Block.Idx and ir.Instr.ID. The
// map-keyed implementations they replaced live on here as oracles (the
// provision_test.go pattern of internal/kernel): on every input below, every
// answer of the table form must be the map form's.

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"carat/internal/analysis"
	"carat/internal/cc"
	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/workload"
)

// refCFG is NewCFG as it was.
type refCFG struct {
	preds  map[*ir.Block][]*ir.Block
	rpo    []*ir.Block
	rpoNum map[*ir.Block]int
}

func newRefCFG(f *ir.Func) *refCFG {
	c := &refCFG{preds: map[*ir.Block][]*ir.Block{}, rpoNum: map[*ir.Block]int{}}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			c.preds[s] = append(c.preds[s], b)
		}
	}
	seen := map[*ir.Block]bool{}
	var post []*ir.Block
	var dfs func(*ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if e := f.Entry(); e != nil {
		dfs(e)
	}
	for i := range post {
		c.rpo = append(c.rpo, post[len(post)-1-i])
	}
	for _, b := range f.Blocks {
		c.rpoNum[b] = -1
	}
	for i, b := range c.rpo {
		c.rpoNum[b] = i
	}
	return c
}

func (c *refCFG) reachable(b *ir.Block) bool { return c.rpoNum[b] >= 0 }

// refDom is NewDomTree as it was (Cooper-Harvey-Kennedy over maps).
type refDom struct {
	cfg  *refCFG
	idom map[*ir.Block]*ir.Block
}

func newRefDom(c *refCFG) *refDom {
	d := &refDom{cfg: c, idom: map[*ir.Block]*ir.Block{}}
	if len(c.rpo) == 0 {
		return d
	}
	d.idom[c.rpo[0]] = c.rpo[0]
	for changed := true; changed; {
		changed = false
		for _, b := range c.rpo[1:] {
			var newIdom *ir.Block
			for _, p := range c.preds[b] {
				if d.idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *refDom) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for d.cfg.rpoNum[a] > d.cfg.rpoNum[b] {
			a = d.idom[a]
		}
		for d.cfg.rpoNum[b] > d.cfg.rpoNum[a] {
			b = d.idom[b]
		}
	}
	return a
}

func (d *refDom) idomOf(b *ir.Block) *ir.Block {
	if id := d.idom[b]; id != b {
		return id
	}
	return nil
}

func (d *refDom) dominates(a, b *ir.Block) bool {
	if !d.cfg.reachable(a) || !d.cfg.reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := d.idom[b]
		if next == nil || next == b {
			return a == b
		}
		b = next
	}
}

// refLoop and refFindLoops are Loop and FindLoops as they were.
type refLoop struct {
	header  *ir.Block
	blocks  map[*ir.Block]bool
	ordered []*ir.Block
	parent  *refLoop
	subs    []*refLoop
	depth   int
}

type refForest struct {
	top       []*refLoop
	innermost map[*ir.Block]*refLoop
}

func refFindLoops(c *refCFG, dom *refDom) *refForest {
	lf := &refForest{innermost: map[*ir.Block]*refLoop{}}
	byHeader := map[*ir.Block]*refLoop{}
	for _, b := range c.rpo {
		for _, s := range b.Succs() {
			if !dom.dominates(s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &refLoop{header: s, blocks: map[*ir.Block]bool{s: true}}
				byHeader[s] = l
			}
			var stack []*ir.Block
			if !l.blocks[b] {
				l.blocks[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range c.preds[x] {
					if !l.blocks[p] && c.reachable(p) {
						l.blocks[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	var all []*refLoop
	for _, b := range c.rpo {
		if l, ok := byHeader[b]; ok {
			all = append(all, l)
		}
	}
	for _, l := range all {
		for _, b := range c.rpo {
			if l.blocks[b] {
				l.ordered = append(l.ordered, b)
			}
		}
	}
	for _, inner := range all {
		var best *refLoop
		for _, outer := range all {
			if outer == inner || !outer.blocks[inner.header] {
				continue
			}
			if best == nil || best.blocks[outer.header] {
				best = outer
			}
		}
		inner.parent = best
		if best != nil {
			best.subs = append(best.subs, inner)
		} else {
			lf.top = append(lf.top, inner)
		}
	}
	var setDepth func(l *refLoop, d int)
	setDepth = func(l *refLoop, d int) {
		l.depth = d
		for _, s := range l.subs {
			setDepth(s, d+1)
		}
	}
	for _, l := range lf.top {
		setDepth(l, 1)
	}
	var walk func(l *refLoop)
	walk = func(l *refLoop) {
		for _, b := range l.ordered { // the map's keys, in an order that repeats
			if cur := lf.innermost[b]; cur == nil || cur.depth < l.depth {
				lf.innermost[b] = l
			}
		}
		for _, s := range l.subs {
			walk(s)
		}
	}
	for _, l := range lf.top {
		walk(l)
	}
	return lf
}

func (lf *refForest) all() []*refLoop {
	var out []*refLoop
	var walk func(*refLoop)
	walk = func(l *refLoop) {
		out = append(out, l)
		for _, s := range l.subs {
			walk(s)
		}
	}
	for _, l := range lf.top {
		walk(l)
	}
	return out
}

func (l *refLoop) preheader(c *refCFG) *ir.Block {
	var ph *ir.Block
	for _, p := range c.preds[l.header] {
		if l.blocks[p] {
			continue
		}
		if ph != nil {
			return nil
		}
		ph = p
	}
	if ph != nil && len(ph.Succs()) != 1 {
		return nil
	}
	return ph
}

func (l *refLoop) exits() []*ir.Block {
	seen := map[*ir.Block]bool{}
	var out []*ir.Block
	for _, b := range l.ordered {
		for _, s := range b.Succs() {
			if !l.blocks[s] && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// refPointsTo is NewPointsToAA as it was: a map of maps. Its unknown object
// is analysis.UnknownObj, so sets compare directly.
type refPointsTo struct {
	sets map[ir.Value]map[ir.Value]bool
}

func newRefPointsTo(f *ir.Func) *refPointsTo {
	pt := &refPointsTo{sets: map[ir.Value]map[ir.Value]bool{}}
	for changed := true; changed; {
		changed = false
		f.ForEachInstr(func(in *ir.Instr) {
			if !in.Typ.IsPtr() {
				return
			}
			var add []ir.Value
			switch in.Op {
			case ir.OpAlloca:
				add = []ir.Value{in}
			case ir.OpCall:
				if in.Callee != nil && ir.IsAllocFn(in.Callee.Name) {
					add = []ir.Value{in}
				} else {
					add = []ir.Value{analysis.UnknownObj}
				}
			case ir.OpGEP:
				add = pt.objectsOf(in.Args[0])
			case ir.OpPhi, ir.OpSelect:
				args := in.Args
				if in.Op == ir.OpSelect {
					args = in.Args[1:]
				}
				for _, a := range args {
					add = append(add, pt.objectsOf(a)...)
				}
			default:
				add = []ir.Value{analysis.UnknownObj}
			}
			s := pt.sets[in]
			if s == nil {
				s = map[ir.Value]bool{}
				pt.sets[in] = s
			}
			for _, o := range add {
				if !s[o] {
					s[o] = true
					changed = true
				}
			}
		})
	}
	return pt
}

func (pt *refPointsTo) objectsOf(v ir.Value) []ir.Value {
	switch x := v.(type) {
	case *ir.Global:
		return []ir.Value{x}
	case *ir.Const:
		return nil
	case *ir.Instr:
		if s := pt.sets[x]; s != nil {
			out := make([]ir.Value, 0, len(s))
			for o := range s {
				out = append(out, o)
			}
			return out
		}
	}
	return []ir.Value{analysis.UnknownObj}
}

func (pt *refPointsTo) alias(a, b ir.Value) analysis.AliasResult {
	sa, sb := pt.objectsOf(a), pt.objectsOf(b)
	if len(sa) == 0 || len(sb) == 0 {
		return analysis.NoAlias
	}
	inA := map[ir.Value]bool{}
	for _, o := range sa {
		if o == analysis.UnknownObj {
			return analysis.MayAlias
		}
		inA[o] = true
	}
	for _, o := range sb {
		if o == analysis.UnknownObj || inA[o] {
			return analysis.MayAlias
		}
	}
	return analysis.NoAlias
}

// refForwardMust is ForwardMust as it was: a set per block in two maps, a
// fresh copy of IN handed to every transfer.
func refForwardMust(c *refCFG, universe int, transfer func(b *ir.Block, in analysis.Bits) analysis.Bits) map[*ir.Block]analysis.Bits {
	full := func() analysis.Bits {
		s := analysis.NewBits(universe)
		for i := 0; i < universe; i++ {
			s.Set(i)
		}
		return s
	}
	ins, outs := map[*ir.Block]analysis.Bits{}, map[*ir.Block]analysis.Bits{}
	for i, b := range c.rpo {
		ins[b], outs[b] = full(), full()
		if i == 0 {
			ins[b] = analysis.NewBits(universe)
		}
	}
	for changed := true; changed; {
		changed = false
		for i, b := range c.rpo {
			in := ins[b]
			if i > 0 {
				first := true
				for _, p := range c.preds[b] {
					if !c.reachable(p) {
						continue
					}
					if first {
						copy(in, outs[p])
						first = false
					} else {
						in.AndWith(outs[p])
					}
				}
				if first {
					clear(in)
				}
			}
			out := transfer(b, slices.Clone(in))
			if !out.Equal(outs[b]) {
				outs[b] = out
				changed = true
			}
		}
	}
	return ins
}

// checkFunc compares every answer of the table-based analyses of f with the
// map-based references'.
func checkFunc(t *testing.T, where string, f *ir.Func) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s @%s: %s", where, f.Name, fmt.Sprintf(format, args...))
	}
	c, rc := analysis.NewCFG(f), newRefCFG(f)
	if !slices.Equal(c.RPO, rc.rpo) {
		fail("RPO differs")
	}
	for _, b := range f.Blocks {
		if !slices.Equal(c.PredsOf(b), rc.preds[b]) {
			fail("preds of ^%s differ", b.Name)
		}
		if c.RPONum(b) != rc.rpoNum[b] || c.Reachable(b) != rc.reachable(b) {
			fail("RPO number of ^%s: %d, want %d", b.Name, c.RPONum(b), rc.rpoNum[b])
		}
	}

	d, rd := analysis.NewDomTree(c), newRefDom(rc)
	for _, a := range f.Blocks {
		if d.IDom(a) != rd.idomOf(a) {
			fail("idom of ^%s differs", a.Name)
		}
		for _, b := range f.Blocks {
			if d.Dominates(a, b) != rd.dominates(a, b) {
				fail("Dominates(^%s, ^%s) differs", a.Name, b.Name)
			}
		}
	}

	lf, rlf := analysis.FindLoops(c, d), refFindLoops(rc, rd)
	header := func(l *analysis.Loop) *ir.Block {
		if l == nil {
			return nil
		}
		return l.Header
	}
	refHeader := func(l *refLoop) *ir.Block {
		if l == nil {
			return nil
		}
		return l.header
	}
	all, rall := lf.All(), rlf.all()
	if len(all) != len(rall) || len(lf.Top) != len(rlf.top) {
		fail("%d loops (%d top), want %d (%d top)", len(all), len(lf.Top), len(rall), len(rlf.top))
	}
	for i, l := range all {
		rl := rall[i]
		if l.Header != rl.header || l.Depth != rl.depth || header(l.Parent) != refHeader(rl.parent) ||
			len(l.Subs) != len(rl.subs) || !slices.Equal(l.Ordered, rl.ordered) {
			fail("loop %d (^%s) differs", i, rl.header.Name)
		}
		for _, b := range f.Blocks {
			if l.Contains(b) != rl.blocks[b] {
				fail("loop ^%s Contains(^%s) differs", rl.header.Name, b.Name)
			}
		}
		var latches []*ir.Block
		for _, p := range rc.preds[rl.header] {
			if rl.blocks[p] {
				latches = append(latches, p)
			}
		}
		if l.Preheader(c) != rl.preheader(rc) || !slices.Equal(l.Latches(c), latches) || !slices.Equal(l.Exits(), rl.exits()) {
			fail("loop ^%s: preheader, latches or exits differ", rl.header.Name)
		}
	}
	for _, b := range f.Blocks {
		if header(lf.Innermost(b)) != refHeader(rlf.innermost[b]) {
			fail("innermost loop of ^%s differs", b.Name)
		}
	}

	// Points-to: the same set for every value (the table's order is its own,
	// and must repeat: two builds agree element for element), the same
	// verdict for every pair of pointers.
	pt, pt2, rpt := analysis.NewPointsToAA(f), analysis.NewPointsToAA(f), newRefPointsTo(f)
	var ptrs []ir.Value
	for _, p := range f.Params {
		ptrs = append(ptrs, p)
	}
	f.ForEachInstr(func(in *ir.Instr) {
		got, want := pt.ObjectsOf(in), rpt.objectsOf(in)
		if len(got) != len(want) || slices.ContainsFunc(want, func(o ir.Value) bool { return !slices.Contains(got, o) }) {
			fail("points-to set of %s: %v, want %v", in, got, want)
		}
		if !slices.Equal(got, pt2.ObjectsOf(in)) {
			fail("points-to set of %s is ordered differently by a second build", in)
		}
		if in.Typ.IsPtr() {
			ptrs = append(ptrs, in)
		}
		for _, a := range in.Args {
			if _, isInstr := a.(*ir.Instr); !isInstr && a.Type().IsPtr() && len(ptrs) < 96 {
				ptrs = append(ptrs, a) // globals, null
			}
		}
	})
	if len(ptrs) > 96 {
		ptrs = ptrs[:96]
	}
	for _, a := range ptrs {
		for _, b := range ptrs {
			if got, want := pt.Alias(a, 8, b, 8), rpt.alias(a, b); got != want {
				fail("Alias(%s, %s) = %v, want %v", a.Ref(), b.Ref(), got, want)
			}
		}
	}

	// Forward-must dataflow under a transfer function drawn from the block:
	// it generates a few facts, and (unlike AC/DC's) kills a few.
	const universe = 70
	transfer := func(b *ir.Block, in analysis.Bits) analysis.Bits {
		r := rand.New(rand.NewSource(int64(b.Idx)*7919 + int64(len(b.Instrs))))
		for k := r.Intn(4); k > 0; k-- {
			in.Set(r.Intn(universe))
		}
		if r.Intn(3) == 0 {
			in.Clear(r.Intn(universe))
		}
		return in
	}
	ins, rins := analysis.ForwardMust(c, universe, transfer), refForwardMust(rc, universe, transfer)
	for _, b := range f.Blocks {
		if want, ok := rins[b]; ok != (ins[b.Idx] != nil) || ok && !ins[b.Idx].Equal(want) {
			fail("forward-must IN of ^%s: %v, want %v", b.Name, ins[b.Idx], want)
		}
	}
}

func checkModule(t *testing.T, where string, m *ir.Module) {
	t.Helper()
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			checkFunc(t, where, f)
		}
	}
}

// TestTablesMatchMapReferences: the 22 kernels as built and after each of the
// five pipeline levels, and the two generated CARAT-C programs.
func TestTablesMatchMapReferences(t *testing.T) {
	levels := []passes.Level{passes.LevelNone, passes.LevelGuardsOnly, passes.LevelGuardsOpt,
		passes.LevelTracking, passes.LevelTrackingOnly}
	inputs := map[string]func() *ir.Module{}
	for _, w := range workload.All() {
		inputs[w.Name] = func() *ir.Module { return w.Build(workload.ScaleTest) }
	}
	for _, name := range []string{"gen14", "gen240"} {
		src, err := os.ReadFile("../cc/testdata/" + name + ".c")
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = func() *ir.Module {
			m, err := cc.Compile(name, string(src))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	for name, build := range inputs {
		checkModule(t, name+" as built", build())
		for _, lvl := range levels {
			m := build()
			if err := passes.Build(lvl).Run(m); err != nil {
				t.Fatal(err)
			}
			checkModule(t, fmt.Sprintf("%s at level %d", name, lvl), m)
		}
	}
}

// randomFunc builds a function over a random CFG: any block may branch to
// any other or to itself, so unreachable blocks, self-loops, nested loops and
// irreducible ones (a cycle entered at two places) all occur. Every block
// defines pointers — allocas, geps, selects, loads, and phis over the
// predecessors' values — for the points-to analysis to chew on.
func randomFunc(r *rand.Rand) *ir.Module {
	m := ir.NewModule("rnd")
	g := m.AddGlobal("g", ir.ArrayOf(ir.I64, 8))
	f := m.AddFunc("f", ir.Void, &ir.Param{Name: "c", Typ: ir.I1}, &ir.Param{Name: "p", Typ: ir.Ptr})
	bld := ir.NewBuilder(f)
	blocks := []*ir.Block{f.Blocks[0]}
	for n := r.Intn(12); n > 0; n-- {
		blocks = append(blocks, f.NewBlock("b"))
	}
	pick := func() *ir.Block { return blocks[r.Intn(len(blocks))] }
	ptrs := []ir.Value{g, f.Params[1], ir.ConstNull()}
	anyPtr := func() ir.Value { return ptrs[r.Intn(len(ptrs))] }
	for _, b := range blocks {
		bld.SetBlock(b)
		for k := r.Intn(4); k > 0; k-- {
			var in *ir.Instr
			switch r.Intn(4) {
			case 0:
				in = bld.Alloca(ir.I64, nil)
			case 1:
				in = bld.GEP(ir.I64, anyPtr(), bld.I64(int64(r.Intn(4))))
			case 2:
				in = bld.Select(f.Params[0], anyPtr(), anyPtr())
			default:
				in = bld.Load(ir.Ptr, anyPtr())
			}
			ptrs = append(ptrs, in)
		}
		switch r.Intn(4) {
		case 0:
			bld.Ret(nil)
		case 1:
			bld.Br(pick())
		default:
			bld.CondBr(f.Params[0], pick(), pick())
		}
	}
	// Phis last, once every edge exists: one incoming per edge, from any
	// pointer at all (Verify does not check dominance, and neither analysis
	// needs it).
	preds := map[*ir.Block][]*ir.Block{}
	for _, b := range blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	for _, b := range blocks[1:] {
		if len(preds[b]) == 0 || r.Intn(2) == 0 {
			continue
		}
		bld.SetBlock(b)
		phi := bld.Phi(ir.Ptr)
		for _, p := range preds[b] {
			ir.AddIncoming(phi, anyPtr(), p)
		}
		if r.Intn(2) == 0 { // and one that feeds on itself
			ir.AddIncoming(phi, phi, preds[b][0])
			phi.Args, phi.Preds = phi.Args[1:], phi.Preds[1:]
		}
		ptrs = append(ptrs, phi)
	}
	return m
}

// TestTablesMatchMapReferencesOnRandomCFGs: 1 000 seeded random functions.
func TestTablesMatchMapReferencesOnRandomCFGs(t *testing.T) {
	shapes := map[string]int{}
	for seed := int64(1); seed <= 1000; seed++ {
		m := randomFunc(rand.New(rand.NewSource(seed)))
		if err := m.Verify(); err != nil {
			t.Fatalf("seed %d: the generator built a malformed function: %v", seed, err)
		}
		f := m.Func("f")
		checkFunc(t, fmt.Sprintf("seed %d", seed), f)

		// What the seeds covered, so the claim in the name can be read off.
		c := analysis.NewCFG(f)
		d := analysis.NewDomTree(c)
		if len(c.RPO) < len(f.Blocks) {
			shapes["unreachable block"]++
		}
		for _, l := range analysis.FindLoops(c, d).All() {
			if l.Depth > 1 {
				shapes["nested loop"]++
			}
			if slices.Contains(l.Latches(c), l.Header) {
				shapes["self-loop"]++
			}
		}
		// A cycle edge whose target does not dominate its source is a way into
		// a cycle that is not its header: irreducible.
		for _, b := range c.RPO {
			for _, s := range b.Succs() {
				if c.RPONum(s) <= c.RPONum(b) && !d.Dominates(s, b) {
					shapes["irreducible"]++
				}
			}
		}
	}
	t.Logf("shapes over 1000 seeds: %v", shapes)
	for _, s := range []string{"unreachable block", "nested loop", "self-loop", "irreducible"} {
		if shapes[s] == 0 {
			t.Errorf("no seed produced a function with a %s", s)
		}
	}
}
