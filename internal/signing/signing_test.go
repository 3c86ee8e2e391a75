package signing

import (
	"errors"
	"math/rand"
	"testing"

	"carat/internal/ir"
)

// detRand is a deterministic entropy source for tests.
type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func newTC(t *testing.T, name string, seed int64) *Toolchain {
	tc, err := NewToolchain(name, detRand{rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func testModule() *ir.Module {
	m := ir.NewModule("signed")
	f := m.AddFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.I64(7))
	return m
}

func TestSignAndVerify(t *testing.T) {
	tc := newTC(t, "carat-llvm", 1)
	m := testModule()
	sm := tc.Sign(m)

	ts := NewTrustStore()
	ts.Trust(tc.Name, tc.Public())
	if err := ts.Verify(sm); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestUntrustedToolchainRejected(t *testing.T) {
	tc := newTC(t, "evil-cc", 2)
	sm := tc.Sign(testModule())
	ts := NewTrustStore()
	if err := ts.Verify(sm); err == nil {
		t.Error("unknown toolchain accepted")
	}
	// Trusting a DIFFERENT key under the same name must also fail.
	other := newTC(t, "evil-cc", 3)
	ts.Trust("evil-cc", other.Public())
	if err := ts.Verify(sm); err == nil {
		t.Error("signature from wrong key accepted")
	}
}

func TestTamperDetected(t *testing.T) {
	tc := newTC(t, "carat-llvm", 4)
	m := testModule()
	sm := tc.Sign(m)
	ts := NewTrustStore()
	ts.Trust(tc.Name, tc.Public())

	// Modify the module after signing: inject an extra instruction.
	entry := m.Func("main").Entry()
	entry.Insert(len(entry.Instrs)-1, &ir.Instr{Op: ir.OpAdd, Name: "evil", Typ: ir.I64,
		Args: []ir.Value{ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2)}})
	if err := ts.Verify(sm); err == nil {
		t.Error("tampered module accepted")
	}
}

func TestFingerprintStable(t *testing.T) {
	tc := newTC(t, "x", 5)
	f1 := Fingerprint(tc.Public())
	f2 := Fingerprint(tc.Public())
	if f1 != f2 || len(f1) != 16 {
		t.Errorf("fingerprint unstable or wrong length: %q %q", f1, f2)
	}
}

// TestTamperMatrix: Verify re-hashes the module's canonical form on every
// call, so any edit after Sign that changes a single canonical byte — a
// name, a constant, an edge, a data byte, an order — is ErrTampered. A
// Verify that trusted the carried digest would pass all five.
func TestTamperMatrix(t *testing.T) {
	const src = `module "victim"
global @tab : [4 x i8] = #01020304
func @helper(%x: i64) -> i64 {
entry:
  ret i64 %x
}
func @main(%n: i64) -> i64 {
entry:
  %c = icmp slt i64 %n, 10
  condbr %c, ^small, ^big
small:
  br ^join
big:
  br ^join
join:
  %v = phi i64 [1, ^small], [2, ^big]
  %r = call i64 @helper(i64 %v)
  ret i64 %r
}`
	phi := func(m *ir.Module) *ir.Instr { return m.Func("main").Blocks[3].Instrs[0] }
	mutations := map[string]func(m *ir.Module){
		"rename one SSA value":        func(m *ir.Module) { phi(m).Name = "w" },
		"flip one integer constant":   func(m *ir.Module) { phi(m).Args[0].(*ir.Const).Int ^= 1 },
		"swap two phi predecessors":   func(m *ir.Module) { p := phi(m); p.Preds[0], p.Preds[1] = p.Preds[1], p.Preds[0] },
		"change one initialiser byte": func(m *ir.Module) { m.Global("tab").Init[2] ^= 0x80 },
		"reorder two functions":       func(m *ir.Module) { m.Funcs[0], m.Funcs[1] = m.Funcs[1], m.Funcs[0] },
	}
	tc := newTC(t, "carat-llvm", 6)
	ts := NewTrustStore()
	ts.Trust(tc.Name, tc.Public())
	for name, mutate := range mutations {
		m := ir.MustParse(src)
		sm := tc.Sign(m)
		if err := ts.Verify(sm); err != nil {
			t.Fatalf("%s: untouched module rejected: %v", name, err)
		}
		mutate(m)
		if err := m.Verify(); err != nil {
			t.Fatalf("%s: the mutation should leave a well-formed module: %v", name, err)
		}
		if err := ts.Verify(sm); !errors.Is(err, ErrTampered) {
			t.Errorf("%s after Sign: Verify = %v, want ErrTampered", name, err)
		}
	}
}
