package compare

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/synth"
)

// countingCtx decrements a budget on every Err() call and reports
// context.Canceled once it is exhausted (sticky). It lets tests cancel a
// comparison deterministically partway through its sequential step
// sequence without relying on timers. Done() stays open, so only the
// explicit Err checks observe the cancellation — exactly the paths the
// engine contract guarantees.
type countingCtx struct {
	//lint:ignore ctxflow test-only context implementation; the embedded parent IS the context
	context.Context
	budget int64
}

func (c *countingCtx) Err() error {
	if atomic.AddInt64(&c.budget, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// errCallsOf runs fn under a counting context with an effectively
// unlimited budget and returns how many Err checks it consumed.
func errCallsOf(t *testing.T, fn func(ctx context.Context) error) int64 {
	t.Helper()
	cc := &countingCtx{Context: context.Background(), budget: 1 << 40}
	if err := fn(cc); err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	return (1 << 40) - atomic.LoadInt64(&cc.budget)
}

// leakEnv builds a perturbed pair so stage 2 genuinely streams data.
func leakEnv(t *testing.T) (*testEnv, Options) {
	t.Helper()
	opts := baseOpts(t, 1e-7, 8<<10)
	pert := synth.DefaultPerturb(7)
	pert.MagLo, pert.MagHi = 1e-3, 1e-2
	env := newEnv(t, 16<<10, opts, pert)
	return env, opts
}

// waitGoroutines polls until the goroutine count drops back to at most
// base, failing after a deadline. Background runtime goroutines can
// linger briefly after a canceled pipeline drains.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStage2FailureClosesReaders injects a read fault into the streaming
// phase and asserts the engine's cleanup chain closed every checkpoint
// reader: no handle survives the early-return error path.
func TestStage2FailureClosesReaders(t *testing.T) {
	env, opts := leakEnv(t)

	// Measure a clean run's read-op count, then arm the fault on its last
	// read — deep inside stage 2.
	startOps, _ := env.store.ReadStats()
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); err != nil {
		t.Fatal(err)
	}
	endOps, _ := env.store.ReadStats()
	total := endOps - startOps
	if total < 3 {
		t.Fatalf("unexpectedly few read ops: %d", total)
	}

	injected := errors.New("injected stage-2 read failure")
	env.store.EvictAll()
	faults.FailReads(env.store, int(total)-1, injected)
	_, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if n := env.store.OpenHandles(); n != 0 {
		t.Fatalf("%d reader handles leaked after stage-2 failure", n)
	}
}

// TestDirectFailureClosesReaders exercises the same invariant on the
// direct sweep, whose plan has no metadata phase.
func TestDirectFailureClosesReaders(t *testing.T) {
	env, opts := leakEnv(t)
	injected := errors.New("injected direct read failure")
	faults.FailReads(env.store, 2, injected)
	if _, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if n := env.store.OpenHandles(); n != 0 {
		t.Fatalf("%d reader handles leaked after direct failure", n)
	}
}

// TestCancelMidComparisonNoLeaks cancels a comparison partway through its
// step sequence and asserts ctx.Err() propagation plus zero leaked
// handles and goroutines.
func TestCancelMidComparisonNoLeaks(t *testing.T) {
	env, opts := leakEnv(t)
	calls := errCallsOf(t, func(ctx context.Context) error {
		env.store.EvictAll()
		_, err := CompareMerkle(ctx, env.store, env.nameA, env.nameB, opts)
		return err
	})
	base := runtime.NumGoroutine()
	// Cancel at every prefix depth: step boundaries, metadata loads, and
	// per-slice pipeline checks all fold into the same Err sequence.
	for _, budget := range []int64{0, 1, 2, calls / 2, calls - 1} {
		env.store.EvictAll()
		cc := &countingCtx{Context: context.Background(), budget: budget}
		res, err := CompareMerkle(cc, env.store, env.nameA, env.nameB, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
		}
		if res != nil {
			t.Fatalf("budget %d: non-nil result on cancellation", budget)
		}
		if n := env.store.OpenHandles(); n != 0 {
			t.Fatalf("budget %d: %d reader handles leaked", budget, n)
		}
	}
	waitGoroutines(t, base)
}

// TestGroupCancelNoLeaks cancels GroupCompare at several depths; the
// shared-read plan must close every member's reader on each path.
func TestGroupCancelNoLeaks(t *testing.T) {
	env, opts := leakEnv(t)
	calls := errCallsOf(t, func(ctx context.Context) error {
		env.store.EvictAll()
		_, err := GroupCompare(ctx, env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
		return err
	})
	base := runtime.NumGoroutine()
	for _, budget := range []int64{0, 1, calls / 2, calls - 1} {
		env.store.EvictAll()
		cc := &countingCtx{Context: context.Background(), budget: budget}
		rep, err := GroupCompare(cc, env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
		}
		if rep != nil {
			t.Fatalf("budget %d: non-nil report on cancellation", budget)
		}
		if n := env.store.OpenHandles(); n != 0 {
			t.Fatalf("budget %d: %d reader handles leaked", budget, n)
		}
	}
	waitGoroutines(t, base)
}
