package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		out, err := Map(context.Background(), 100, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestDoSmallestIndexError(t *testing.T) {
	// Several items fail; the error of the smallest index must win no
	// matter which goroutine observes its failure first.
	for _, workers := range []int{1, 4, 16} {
		err := Do(context.Background(), 64, workers, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, …
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: err = %v, want item 3", workers, err)
		}
	}
}

func TestDoCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- Do(ctx, 1_000_000, 4, func(i int) error {
			if started.Add(1) == 8 {
				cancel()
			}
			time.Sleep(50 * time.Microsecond)
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do did not return after cancellation")
	}
	if n := started.Load(); n >= 1_000_000 {
		t.Fatalf("cancellation did not stop dispatch (ran %d items)", n)
	}
}

func TestDoPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := Do(ctx, 10, 1, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("no item may start on a pre-canceled context")
	}
}

// TestDoPanicIsItemError pins panic isolation: a panicking item fails
// Do like an erroring one — smallest failing index wins, same error at
// 1 and N workers — instead of killing the process from a worker
// goroutine.  The error keeps the panic value and the panicking stack.
func TestDoPanicIsItemError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Do(context.Background(), 64, workers, func(i int) error {
			switch {
			case i == 5 || i == 40:
				panic(fmt.Sprintf("boom %d", i))
			case i == 20:
				return errors.New("item 20")
			}
			return nil
		})
		if err == nil || err.Error() != "par: item 5 panicked: boom 5" {
			t.Fatalf("workers=%d: err = %v, want item 5's panic", workers, err)
		}
		var ps interface{ PanicStack() []byte }
		if !errors.As(err, &ps) || !strings.Contains(string(ps.PanicStack()), "TestDoPanicIsItemError") {
			t.Fatalf("workers=%d: panic error carries no stack of the panicking item", workers)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count must pass through")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}
