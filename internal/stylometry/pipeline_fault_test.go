package stylometry

import (
	"errors"
	"reflect"
	"testing"

	"gptattr/internal/fault"
)

// faultSources is a small batch of valid C++ sources.
func faultSources() []string {
	return []string{
		"int main() { return 0; }",
		"int main() { int a = 1; return a; }",
		"int main() { for (int i = 0; i < 3; i++) {} return 0; }",
		"int main() { int x = 2; int y = x + 1; return y; }",
	}
}

// TestExtractRetriesTransientFaults arms a bounded error fault and
// asserts the retry supervisor absorbs it: output identical to a
// fault-free run, no error surfaced.
func TestExtractRetriesTransientFaults(t *testing.T) {
	defer fault.Disable()
	srcs := faultSources()
	want, _, err := ExtractAll(srcs, DegradeNone, ExtractConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(3)
	fault.Set(PointExtract, fault.Policy{Kind: fault.KindError, Every: 2, Limit: ExtractRetries - 1})
	got, _, err := ExtractAll(srcs, DegradeNone, ExtractConfig{Workers: 1})
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	if fault.Stats()[PointExtract].Fires == 0 {
		t.Fatal("fault never fired")
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("sample %d: vector differs from the fault-free run", i)
		}
	}
}

// TestPanicContainedToOneSample arms a panic fault that exhausts the
// retry budget for exactly one sample (hits 3..5 fire; sample 3's
// three attempts all panic). The run must survive: that sample gets a
// *PanicError with its index via *ExtractError, every batch-mate
// extracts normally.
func TestPanicContainedToOneSample(t *testing.T) {
	defer fault.Disable()
	srcs := faultSources()
	fault.Enable(3)
	fault.Set(PointExtract, fault.Policy{Kind: fault.KindPanic, After: 2, Limit: ExtractRetries})

	out, _, err := ExtractAll(srcs, DegradeNone, ExtractConfig{Workers: 1})
	var ee *ExtractError
	if !errors.As(err, &ee) || ee.Index != 2 {
		t.Fatalf("ExtractAll error = %v, want *ExtractError for index 2", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a contained panic", err)
	}
	for i := range srcs {
		if i != ee.Index && out[i] == nil {
			t.Errorf("sample %d: batch-mate of the panicking sample has no features", i)
		}
	}
}

// TestInjectedPanicAbsorbedByRetry keeps the panic count under the
// retry budget: the run must complete with no error at all.
func TestInjectedPanicAbsorbedByRetry(t *testing.T) {
	defer fault.Disable()
	srcs := faultSources()
	fault.Enable(3)
	fault.Set(PointExtract, fault.Policy{Kind: fault.KindPanic, Every: 3, Limit: ExtractRetries - 1})
	_, _, err := ExtractAll(srcs, DegradeNone, ExtractConfig{Workers: 2})
	if err != nil {
		t.Fatalf("retry did not absorb bounded injected panics: %v", err)
	}
	if fault.Stats()[PointExtract].Fires == 0 {
		t.Fatal("fault never fired")
	}
}

// TestRealPanicIsNotRetried pins the containment contract for
// non-injected panics: they carry a stack, are not transient, and are
// therefore never retried by the supervisor.
func TestRealPanicIsNotRetried(t *testing.T) {
	calls := 0
	err := fault.Retry(ExtractRetries, 0, func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: "boom", Stack: []byte("stack")}
			}
		}()
		calls++
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Transient() {
		t.Fatalf("err = %v, want non-transient PanicError", err)
	}
	if calls != 1 {
		t.Fatalf("real panic retried %d times", calls)
	}
}
