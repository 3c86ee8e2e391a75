package main

// adapter.go is the only file of the benchmark that imports carat/internal
// packages. The symbols it names are the API surface the benchmark is frozen
// against (listed in README.md): a refactor that renames one of them must
// keep the old name compiling until a benchmark PR moves this file.
//
// Every call into a layer is wrapped in a span, so the trace shows each
// layer's time measured from outside.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"time"

	"carat/internal/cc"
	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/mmpolicy"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/server"
	"carat/internal/signing"
	"carat/internal/vm"
	suite "carat/internal/workload"
)

// module is a CARAT IR module; the alias lets the other files hold one
// without importing the ir package.
type module = ir.Module

// ---- front ends, passes, signing ----

func instrCount(m *module) int {
	n := 0
	for _, f := range m.Funcs {
		f.ForEachInstr(func(*ir.Instr) { n++ })
	}
	return n
}

// frontCC runs the CARAT-C front end; the span's work is the IR instructions
// it produced.
func frontCC(tr *tracer, name, src string) (*module, error) {
	id := tr.begin("cc.compile")
	m, err := cc.Compile(name, src)
	work := 0
	if err == nil {
		work = instrCount(m)
	}
	tr.end(id, float64(work))
	return m, err
}

// frontIR parses textual IR; the span's work is the IR instructions parsed.
func frontIR(tr *tracer, src string) (*module, error) {
	id := tr.begin("ir.parse")
	m, err := ir.Parse(src)
	work := 0
	if err == nil {
		work = instrCount(m)
	}
	tr.end(id, float64(work))
	return m, err
}

func printIR(m *module) string { return m.String() }

// passStats is what one pipeline run reports.
type passStats struct {
	InstrsBefore, InstrsAfter       int
	GuardsInjected, GuardsRemaining int
	AnalysisHits, AnalysisMisses    uint64
}

// runPasses applies the full CARAT pipeline (LevelTracking) to m in place,
// on one worker as caratd does. The span's work is the instructions going in.
func runPasses(tr *tracer, m *module) (passStats, error) {
	st := passStats{InstrsBefore: instrCount(m)}
	id := tr.begin("passes.run")
	pm := passes.Build(passes.LevelTracking)
	pm.Workers = 1
	err := pm.Run(m)
	tr.end(id, float64(st.InstrsBefore))
	if err != nil {
		return st, err
	}
	st.InstrsAfter = instrCount(m)
	st.GuardsInjected = pm.Stats.GuardsInjected
	st.GuardsRemaining = pm.Stats.GuardsRemaining
	as := pm.AnalysisStats()
	st.AnalysisHits, st.AnalysisMisses = as.Hits, as.Misses
	return st, nil
}

// signer is a toolchain identity plus a trust store that trusts it.
type signer struct {
	tc    *signing.Toolchain
	trust *signing.TrustStore
}

func newSigner(seed int64) (*signer, error) {
	tc, err := signing.NewToolchain("benchmark-cc", rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	ts := signing.NewTrustStore()
	ts.Trust(tc.Name, tc.Public())
	return &signer{tc: tc, trust: ts}, nil
}

// signVerify signs m and verifies the signature, the fixed cost caratd pays
// once per compile.
func (s *signer) signVerify(tr *tracer, m *module) error {
	id := tr.begin("signing.sign_verify")
	err := s.trust.Verify(s.tc.Sign(m))
	tr.end(id, 1)
	return err
}

// ---- machine and guests ----

// machine is one shared physical machine: every guest of a workload loads
// into it and releases its pages afterwards, as caratd's tenants do.
type machine struct {
	k   *kernel.Kernel
	reg *obs.Registry
}

func newMachine(memBytes uint64) *machine {
	reg := obs.NewRegistry()
	return &machine{k: kernel.NewWith(memBytes, reg), reg: reg}
}

// counters snapshots the machine's registry.
func (mc *machine) counters() map[string]uint64 { return mc.reg.Snapshot().Counters }

// guestOpts are the only vm.Config fields the benchmark sets besides Kernel.
type guestOpts struct {
	heapBytes uint64 // 0 keeps vm.DefaultConfig's 64 MB
	// reference selects the baseline interpreter (all three tier switches
	// off); only -write-golden uses it. Otherwise guests run on the closure
	// tier.
	reference bool
}

// runResult is what one guest run produced.
type runResult struct {
	Exit                           int64
	Instrs, Cycles, GuardChecks    uint64
	OutputDigest                   string
	Outputs                        int
	XCacheHits, XCacheMisses       uint64
	ClosureBlocks, ClosureDeopts   uint64
	ClosureICHits, ClosureICMisses uint64
}

type guest struct {
	v  *vm.VM
	tr *tracer
}

func (mc *machine) load(tr *tracer, m *module, o guestOpts) (*guest, error) {
	cfg := vm.DefaultConfig()
	cfg.Kernel = mc.k
	cfg.Closure = !o.reference
	if o.reference {
		cfg.Predecode, cfg.XCache = false, false
	}
	if o.heapBytes != 0 {
		cfg.HeapBytes = o.heapBytes
	}
	id := tr.begin("vm.load")
	v, err := vm.Load(m, cfg)
	tr.end(id, 1)
	if err != nil {
		return nil, err
	}
	return &guest{v: v, tr: tr}, nil
}

// run executes @main under a span of the given name: "vm.run", or
// "vm.run.storm" under injected moves, with the guest instructions retired
// as the span's work.
func (g *guest) run(spanName string) (runResult, error) { return g.runAs(spanName, 0) }

// runAs is run with the span's work given by the caller: compile-cold names
// a module's first run "vm.tierup" and charges it per IR instruction.
func (g *guest) runAs(spanName string, work float64) (runResult, error) {
	id := g.tr.begin(spanName)
	exit, err := g.v.Run()
	if work == 0 {
		work = float64(g.v.Instrs)
	}
	g.tr.end(id, work)
	r := runResult{
		Exit: exit, Instrs: g.v.Instrs, Cycles: g.v.Cycles, GuardChecks: g.v.GuardChecks,
		OutputDigest: digestOutputs(g.v.Output), Outputs: len(g.v.Output),
	}
	r.XCacheHits, r.XCacheMisses, _ = g.v.XCacheStats()
	r.ClosureBlocks, r.ClosureDeopts, r.ClosureICHits, r.ClosureICMisses = g.v.ClosureStats()
	return r, err
}

func (g *guest) release() error {
	id := g.tr.begin("vm.release")
	err := g.v.Release()
	g.tr.end(id, 1)
	return err
}

// stormMoves injects one worst-case page move every period retired
// instructions (the default move protocol). After each move it calls onMove,
// on the guest's goroutine and outside the move's span, with the host time
// the move callback took.
func (g *guest) stormMoves(period uint64, onMove func(ns int64)) {
	g.v.SetMovePolicy(period, func() error {
		id := g.tr.begin("runtime.move")
		t0 := time.Now()
		err := g.v.InjectWorstCaseMove()
		ns := int64(time.Since(t0))
		g.tr.end(id, 1)
		onMove(ns)
		return err
	})
}

func digestOutputs(out []int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---- the 22 suite kernels ----

type kernelSpec struct {
	Name  string
	build func(s suite.Scale) *module
}

func suiteKernels() []kernelSpec {
	var out []kernelSpec
	for _, w := range suite.All() {
		out = append(out, kernelSpec{Name: w.Name, build: w.Build})
	}
	return out
}

// buildKernel builds the kernel at ScaleSmall (or ScaleTest when small is
// false); the module is fresh and uninstrumented.
func (k kernelSpec) buildKernel(small bool) *module {
	if small {
		return k.build(suite.ScaleSmall)
	}
	return k.build(suite.ScaleTest)
}

// ---- caratd in process ----

type serverHandle struct {
	s *server.Server
	h http.Handler
}

// bootServer builds caratd as its sample deployment does, minus the
// listener and the ballast: the defaults plus a JSON overlay, decoded the
// way cmd/caratd decodes its -config file.
func bootServer(tr *tracer) (*serverHandle, error) {
	id := tr.begin("server.boot")
	defer tr.end(id, 1)
	cfg := server.DefaultServerConfig()
	if err := json.Unmarshal([]byte(`{"closure":true,"ballast":{"disabled":true}}`), &cfg); err != nil {
		return nil, err
	}
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	s.StartBackground()
	return &serverHandle{s: s, h: s.Handler()}, nil
}

// serve drives one request through the server's handler on the calling
// goroutine, with no socket in between.
func (sh *serverHandle) serve(tr *tracer, w http.ResponseWriter, r *http.Request) {
	id := tr.begin("server.request")
	sh.h.ServeHTTP(w, r)
	tr.end(id, 1)
}

func (sh *serverHandle) counters() map[string]uint64 { return sh.s.Obs().Snapshot().Counters }

// ---- mmpolicy harness ----

type policyResult struct {
	Moves, SwapOuts, SwapIns            uint64
	Decisions, DefragMoves              uint64
	PageAllocs, PageMoves               uint64
	RuntimeMoves, Rollbacks, MoveCycles uint64
}

// runPolicyHarness runs the four-process pressure harness (two churners, a
// streamer and a cold store on a 4 MB machine) under the defrag, tiering and
// NUMA policies for steps rounds, then checks every allocation stamp.
func runPolicyHarness(tr *tracer, seed int64, steps int) (policyResult, error) {
	var res policyResult
	reg := obs.NewRegistry()
	id := tr.begin("mmpolicy.new")
	h, err := mmpolicy.NewHarness(mmpolicy.HarnessConfig{
		MemBytes:  1 << 22,
		TickEvery: 50_000,
		Procs: []mmpolicy.ProcSpec{
			{Name: "churn-a", Kind: mmpolicy.Churn, Slots: 192, MaxPages: 4, Seed: seed*4 + 1},
			{Name: "churn-b", Kind: mmpolicy.Churn, Slots: 192, MaxPages: 4, Seed: seed*4 + 2},
			{Name: "stream", Kind: mmpolicy.Stream, Slots: 24, MaxPages: 2, Seed: seed*4 + 3},
			{Name: "cold", Kind: mmpolicy.ColdStore, Slots: 96, MaxPages: 2, Seed: seed*4 + 4},
		},
		Policies: []mmpolicy.Policy{mmpolicy.NewDefrag(64), mmpolicy.NewTiering(), mmpolicy.NewNUMARebalance()},
		Obs:      reg,
	})
	tr.end(id, 1)
	if err != nil {
		return res, err
	}
	id = tr.begin("mmpolicy.run")
	err = h.Run(steps)
	tr.end(id, float64(steps))
	if err != nil {
		return res, err
	}
	id = tr.begin("mmpolicy.verify")
	err = h.Verify()
	tr.end(id, 1)
	if err != nil {
		return res, err
	}
	doc := h.D.Report()
	c := reg.Snapshot().Counters
	res = policyResult{
		Moves: doc.Totals.Moves, SwapOuts: doc.Totals.SwapOuts, SwapIns: doc.Totals.SwapIns,
		Decisions: c["carat.policy.decisions"], DefragMoves: c["carat.policy.defrag_moves"],
		PageAllocs: c["carat.kernel.page_allocs"], PageMoves: c["carat.kernel.page_moves"],
		RuntimeMoves: c["carat.runtime.moves"], Rollbacks: c["carat.runtime.move_rollbacks"],
		MoveCycles: c["carat.runtime.move_cycles"],
	}
	return res, nil
}

// ---- micro-probes of layers no workload span isolates ----

// probeGuard times n Evaluator.Check calls over an 8-region set and n
// steady-state CheckTranslateCached hits.
func probeGuard(tr *tracer, n int) error {
	set := guard.NewRegionSet()
	for i := uint64(0); i < 8; i++ {
		if err := set.Add(guard.Region{Base: (2*i + 1) << 20, Len: 1 << 20, Perm: guard.PermRW}); err != nil {
			return err
		}
	}
	ev := guard.NewEvaluator(guard.MechRange, set)
	ok := true
	id := tr.begin("guard.check")
	for i := 0; i < n; i++ {
		addr := uint64(2*(i&7)+1)<<20 + uint64(i&0xfff)*8
		ok = ev.Check(addr, 8, guard.PermRead) && ok
	}
	tr.end(id, float64(n))
	xc := guard.NewXCache()
	addr := uint64(5)<<20 + 64
	ok = ev.CheckCached(xc, addr, 8, guard.PermRead) && ok
	id = tr.begin("guard.xcache_hit")
	for i := 0; i < n; i++ {
		_, hit := ev.CheckTranslateCached(xc, addr, 8, guard.PermRead)
		ok = hit && ok
	}
	tr.end(id, float64(n))
	if !ok {
		return fmt.Errorf("guard probe: a check that must pass was refused")
	}
	return nil
}

// probeGrant times n GrantRegion+ReleaseRegion pairs of 4 MB, the capsule
// size caratd grants per request.
func probeGrant(tr *tracer, mc *machine, n int) error {
	const size = 4 << 20
	p := mc.k.NewProcess()
	id := tr.begin("kernel.grant")
	defer tr.end(id, float64(n*size)/(1<<20))
	for i := 0; i < n; i++ {
		base, err := p.GrantRegion(size, guard.PermRW)
		if err != nil {
			return err
		}
		if err := p.ReleaseRegion(base, size); err != nil {
			return err
		}
	}
	return nil
}
