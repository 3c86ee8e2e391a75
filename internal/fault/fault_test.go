package fault

import (
	"errors"
	"testing"

	"carat/internal/obs"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.Should(MoveAbort) {
		t.Error("nil injector fired")
	}
	if err := in.Fail(KernelVeto, "x"); err != nil {
		t.Error("nil injector returned an error")
	}
	if d := in.Delay(SwapDelay, 100); d != 0 {
		t.Errorf("nil injector delayed %d cycles", d)
	}
	in.SetRate(MoveAbort, 1)
	in.Arm(MoveAbort, 1)
	in.SetTracer(nil)
	if in.InjectedCount() != 0 {
		t.Error("nil injector reported state")
	}
}

func TestSeededReplayIsDeterministic(t *testing.T) {
	draw := func() []bool {
		in := New(7, nil)
		in.SetRate(MoveAbort, 0.3)
		in.SetRate(SwapInIO, 0.5)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, in.Should(MoveAbort), in.Should(SwapInIO))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across replays of the same seed", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rates 0.3/0.5 fired %d of %d checks", fired, len(a))
	}
}

func TestZeroRatePointsDoNotPerturbTheStream(t *testing.T) {
	with := New(11, nil)
	with.SetRate(MoveAbort, 0.5)
	without := New(11, nil)
	without.SetRate(MoveAbort, 0.5)
	for i := 0; i < 100; i++ {
		// The extra zero-rate checks on `with` must not consume draws.
		with.Should(KernelVeto)
		with.Should(FlushFail)
		if with.Should(MoveAbort) != without.Should(MoveAbort) {
			t.Fatalf("check %d: zero-rate points perturbed the seeded stream", i)
		}
	}
}

func TestArmFiresOnNthCheckOnce(t *testing.T) {
	in := New(1, nil)
	in.Arm(PatchFail, 3)
	got := []bool{}
	for i := 0; i < 6; i++ {
		got = append(got, in.Should(PatchFail))
	}
	want := []bool{false, false, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("armed check sequence = %v, want %v", got, want)
		}
	}
}

func TestRatesAlwaysAndNever(t *testing.T) {
	in := New(3, nil)
	in.SetRate(SwapOutIO, 1)
	for i := 0; i < 10; i++ {
		if !in.Should(SwapOutIO) {
			t.Fatal("rate 1 did not fire")
		}
		if in.Should(SwapInIO) {
			t.Fatal("unset rate fired")
		}
	}
	in.SetRate(SwapOutIO, 0)
	if in.Should(SwapOutIO) {
		t.Fatal("cleared rate fired")
	}
}

func TestErrorWrappingAndInjected(t *testing.T) {
	in := New(5, nil)
	in.SetRate(KernelVeto, 1)
	err := in.Fail(KernelVeto, "negotiation")
	if err == nil {
		t.Fatal("rate-1 Fail returned nil")
	}
	wrapped := errorsJoinLike(err)
	if !Injected(wrapped) {
		t.Error("Injected did not see through wrapping")
	}
	var fe *Error
	if !errors.As(wrapped, &fe) || fe.Point != KernelVeto {
		t.Errorf("wrapped error lost its point: %v", wrapped)
	}
	if Injected(errors.New("plain")) {
		t.Error("plain error reported as injected")
	}
}

func errorsJoinLike(err error) error {
	return &wrapErr{err}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "outer: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

func TestMetricsAndDelay(t *testing.T) {
	reg := obs.NewRegistry()
	in := New(9, reg)
	in.SetRate(SwapDelay, 1)
	d := in.Delay(SwapDelay, 500)
	if d < 1 || d > 500 {
		t.Errorf("delay %d outside [1,500]", d)
	}
	if in.Delay(SwapDelay, 0) != 0 {
		t.Error("max 0 returned a delay")
	}
	if in.InjectedCount() == 0 {
		t.Error("injected count not advanced")
	}
	if reg.Counter("carat.fault.injected.swap.delay").Get() == 0 {
		t.Error("per-point counter not advanced")
	}
	if reg.Counter("carat.fault.checks").Get() == 0 {
		t.Error("check counter not advanced")
	}
}

func TestParseSpec(t *testing.T) {
	seed, rate, err := ParseSpec("42:0.01")
	if err != nil || seed != 42 || rate != 0.01 {
		t.Fatalf("ParseSpec = %d, %v, %v", seed, rate, err)
	}
	for _, bad := range []string{"", "42", ":0.5", "x:0.5", "1:nope", "1:1.5", "1:-0.1"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
