package liberty

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/tech"
)

// TestCharacterizeWorkersEquivalent asserts the per-master × per-dose
// characterization is bit-identical for every worker count and keeps
// the fixed (master-major, dose-minor) order.
func TestCharacterizeWorkersEquivalent(t *testing.T) {
	lib := New(tech.N65())
	ref, err := Characterize(context.Background(), lib.Masters, DoseSteps(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nd := len(DoseSteps())
	if len(ref) != len(lib.Masters)*nd {
		t.Fatalf("got %d variants, want %d", len(ref), len(lib.Masters)*nd)
	}
	for i, v := range ref {
		if v.Master != lib.Masters[i/nd] {
			t.Fatalf("variant %d: master order broken", i)
		}
		if v.Dose != DoseSteps()[i%nd] {
			t.Fatalf("variant %d: dose order broken", i)
		}
	}
	for _, w := range []int{2, 8, 0} {
		vs, err := Characterize(context.Background(), lib.Masters, DoseSteps(), w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range vs {
			if math.Float64bits(vs[i].Leak) != math.Float64bits(ref[i].Leak) ||
				math.Float64bits(vs[i].DL) != math.Float64bits(ref[i].DL) {
				t.Fatalf("workers=%d: variant %d differs", w, i)
			}
			if !reflect.DeepEqual(vs[i].Table, ref[i].Table) {
				t.Fatalf("workers=%d: variant %d NLDM table differs", w, i)
			}
		}
	}
}

// TestCharacterizeCanceled asserts cancellation surfaces as a wrapped
// context.Canceled.
func TestCharacterizeCanceled(t *testing.T) {
	lib := New(tech.N65())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Characterize(ctx, lib.Masters, DoseSteps(), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}
