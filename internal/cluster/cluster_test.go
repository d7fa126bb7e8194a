package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// buildWorkload writes nPairs checkpoint pairs with metadata and returns
// the pair list.
func buildWorkload(t *testing.T, store *pfs.Store, nPairs, elems int, opts compare.Options) []Pair {
	t.Helper()
	fields := []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: int64(elems)},
		{Name: "vx", DType: errbound.Float32, Count: int64(elems)},
	}
	pairs := make([]Pair, 0, nPairs)
	for i := 0; i < nPairs; i++ {
		pert := synth.DefaultPerturb(int64(100 + i))
		pert.UntouchedFrac = 0.9
		dataA, dataB := synth.RunPair(elems, len(fields), int64(i), pert)
		metaA := ckpt.Meta{RunID: "scaleA", Iteration: i, Rank: 0, Fields: fields}
		metaB := ckpt.Meta{RunID: "scaleB", Iteration: i, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, metaA, dataA); err != nil {
			t.Fatal(err)
		}
		if _, err := ckpt.WriteCheckpoint(store, metaB, dataB); err != nil {
			t.Fatal(err)
		}
		nameA, nameB := ckpt.Name("scaleA", i, 0), ckpt.Name("scaleB", i, 0)
		for _, nd := range []struct {
			name string
			data [][]byte
		}{{nameA, dataA}, {nameB, dataB}} {
			m, _, err := compare.Build(fields, nd.data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := compare.SaveMetadata(store, nd.name, m); err != nil {
				t.Fatal(err)
			}
		}
		pairs = append(pairs, Pair{NameA: nameA, NameB: nameB})
	}
	return pairs
}

func scalingOpts(t testing.TB, eps float64) compare.Options {
	pool := device.NewPool(2)
	t.Cleanup(pool.Close)
	return compare.Options{
		Epsilon:      eps,
		ChunkSize:    4 << 10,
		Exec:         pool,
		SetupVirtual: time.Millisecond, // keep fixed costs from washing out laptop-scale dynamics
	}
}

func TestRunPartitionsAllPairs(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := scalingOpts(t, 1e-5)
	pairs := buildWorkload(t, store, 10, 8<<10, opts)
	res, err := Run(context.Background(), store, pairs, Config{Processes: 3, Method: compare.MethodMerkle, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.PerProcess {
		total += p.Pairs
	}
	if total != 10 {
		t.Errorf("processes covered %d pairs, want 10", total)
	}
	if res.MakespanVirtual <= 0 {
		t.Error("makespan not accounted")
	}
	if res.TotalPairs != 10 || res.Processes != 3 || res.PerNode != 4 {
		t.Errorf("result identity: %+v", res)
	}
	if res.PerProcessThroughputGBps() <= 0 || res.AggregateThroughputGBps() <= 0 {
		t.Error("throughput not accounted")
	}
}

func TestStrongScalingShape(t *testing.T) {
	// Fig. 10's structural claims at laptop scale: (1) makespan shrinks
	// near-linearly with process count for both methods; (2) the Merkle
	// method's per-process throughput stays above Direct's.
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := scalingOpts(t, 1e-3)
	pairs := buildWorkload(t, store, 8, 1<<20, opts)

	makespan := map[int]map[string]float64{}
	for _, procs := range []int{2, 4, 8} {
		makespan[procs] = map[string]float64{}
		for _, m := range []compare.Method{compare.MethodMerkle, compare.MethodDirect} {
			res, err := Run(context.Background(), store, pairs, Config{Processes: procs, Method: m, Opts: opts, Static: true})
			if err != nil {
				t.Fatal(err)
			}
			makespan[procs][m.String()] = res.MakespanVirtual.Seconds()
		}
	}
	for _, m := range []string{"merkle", "direct"} {
		sp := makespan[2][m] / makespan[8][m]
		if sp < 2.0 {
			t.Errorf("%s: speedup 2→8 procs = %.2f, want >= 2", m, sp)
		}
	}
	for _, procs := range []int{2, 4, 8} {
		if makespan[procs]["merkle"] >= makespan[procs]["direct"] {
			t.Errorf("procs=%d: merkle makespan %.4fs not below direct %.4fs",
				procs, makespan[procs]["merkle"], makespan[procs]["direct"])
		}
	}
}

func TestRunValidation(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := scalingOpts(t, 1e-5)
	if _, err := Run(context.Background(), store, nil, Config{Processes: 2, Method: compare.MethodDirect, Opts: opts}); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Run(context.Background(), store, []Pair{{NameA: "a", NameB: "b"}}, Config{Processes: 0, Method: compare.MethodDirect, Opts: opts}); err == nil {
		t.Error("zero processes accepted")
	}
	// Missing files must surface as an error, not a hang.
	if _, err := Run(context.Background(), store, []Pair{{NameA: "missing1", NameB: "missing2"}},
		Config{Processes: 2, Method: compare.MethodDirect, Opts: opts}); err == nil {
		t.Error("missing files accepted")
	}
}

func TestMoreProcessesThanPairs(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := scalingOpts(t, 1e-5)
	pairs := buildWorkload(t, store, 2, 4<<10, opts)
	res, err := Run(context.Background(), store, pairs, Config{Processes: 8, Method: compare.MethodMerkle, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.PerProcess {
		total += p.Pairs
	}
	if total != 2 {
		t.Errorf("covered %d pairs, want 2", total)
	}
}

func TestSharersRestoredAfterRun(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := scalingOpts(t, 1e-5)
	pairs := buildWorkload(t, store, 2, 4<<10, opts)
	if _, err := Run(context.Background(), store, pairs, Config{Processes: 8, PerNode: 4, Method: compare.MethodDirect, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	if store.Sharers() != 1 {
		t.Errorf("sharers left at %d after run", store.Sharers())
	}
}

// buildSkewedWorkload writes nPairs checkpoint pairs whose sizes alternate
// tiny/huge by index parity, so the stride partition over two processes
// puts all the heavy pairs on process 1.
func buildSkewedWorkload(t *testing.T, store *pfs.Store, nPairs, tinyElems, bigElems int, opts compare.Options) []Pair {
	t.Helper()
	pairs := make([]Pair, 0, nPairs)
	for i := 0; i < nPairs; i++ {
		elems := tinyElems
		if i%2 == 1 {
			elems = bigElems
		}
		fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: int64(elems)}}
		pert := synth.DefaultPerturb(int64(300 + i))
		dataA, dataB := synth.RunPair(elems, len(fields), int64(i), pert)
		for ab, data := range [][][]byte{dataA, dataB} {
			runID := []string{"skewA", "skewB"}[ab]
			if _, err := ckpt.WriteCheckpoint(store, ckpt.Meta{RunID: runID, Iteration: i, Rank: 0, Fields: fields}, data); err != nil {
				t.Fatal(err)
			}
			m, _, err := compare.Build(fields, data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := compare.SaveMetadata(store, ckpt.Name(runID, i, 0), m); err != nil {
				t.Fatal(err)
			}
		}
		pairs = append(pairs, Pair{NameA: ckpt.Name("skewA", i, 0), NameB: ckpt.Name("skewB", i, 0)})
	}
	return pairs
}

// TestStealingBalancesSkew puts every heavy pair on one process's deque:
// the idle process must steal from its tail, all pairs must still run
// exactly once, and the balanced makespan must beat the static stride.
func TestStealingBalancesSkew(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	// A near-zero setup cost: the default 50ms flat per-pair virtual setup
	// would make tiny pairs as virtually expensive as huge ones, decoupling
	// the virtual makespan from the size skew the test constructs. (Zero
	// would be normalized back to the default.)
	opts := scalingOpts(t, 1e-5)
	opts.SetupVirtual = time.Microsecond
	pairs := buildSkewedWorkload(t, store, 8, 1<<10, 1<<20, opts)
	run := func(static bool) *Result {
		res, err := Run(context.Background(), store, pairs, Config{Processes: 2, Method: compare.MethodMerkle, Opts: opts, Static: static})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range res.PerProcess {
			total += p.Pairs
		}
		if total != len(pairs) {
			t.Fatalf("static=%v: covered %d pairs, want %d", static, total, len(pairs))
		}
		return res
	}
	static := run(true)
	if static.Steals != 0 {
		t.Errorf("static run recorded %d steals", static.Steals)
	}
	steal := run(false)
	if steal.Steals == 0 {
		t.Fatal("stealing run recorded no steals on a skewed workload")
	}
	if steal.MakespanVirtual >= static.MakespanVirtual {
		t.Errorf("stealing makespan %v not below static %v", steal.MakespanVirtual, static.MakespanVirtual)
	}
	if steal.TotalDiffs != static.TotalDiffs {
		t.Errorf("TotalDiffs changed with schedule: %d vs %d", steal.TotalDiffs, static.TotalDiffs)
	}
}

// cancelHook cancels a context after N reads of one file — a
// deterministic mid-pair cancellation inside a comparison's stage 2.
type cancelHook struct {
	name   string
	after  int
	cancel context.CancelFunc

	mu    sync.Mutex
	count int
}

func (h *cancelHook) BeforeRead(name string, off int64, n int) error {
	if name == h.name {
		h.mu.Lock()
		h.count++
		fire := h.count == h.after
		h.mu.Unlock()
		if fire {
			h.cancel()
		}
	}
	return nil
}

func (h *cancelHook) AfterRead(name string, off int64, p []byte) pfs.Cost { return pfs.Cost{} }

func (h *cancelHook) BeforeWrite(name string, off int64, n int) (int, error) { return 0, nil }

// TestMidPairCancellation cancels from inside a pair's data reads — not
// between pairs — and requires the cancellation to surface from Run.
func TestMidPairCancellation(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := scalingOpts(t, 1e-5)
	pairs := buildWorkload(t, store, 4, 8<<10, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store.SetFaultHook(&cancelHook{name: pairs[2].NameB, after: 2, cancel: cancel})
	defer store.SetFaultHook(nil)
	_, err = Run(ctx, store, pairs, Config{Processes: 2, Method: compare.MethodDirect, Opts: opts})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestZeroDurationThroughput guards the throughput accessors against
// division by a zero virtual clock: they must report 0, not NaN or +Inf.
func TestZeroDurationThroughput(t *testing.T) {
	r := &Result{PerProcess: []ProcessResult{{BytesCompared: 1 << 20}}}
	if got := r.PerProcessThroughputGBps(); got != 0 {
		t.Errorf("PerProcessThroughputGBps on zero duration = %v, want 0", got)
	}
	if got := r.AggregateThroughputGBps(); got != 0 {
		t.Errorf("AggregateThroughputGBps on zero duration = %v, want 0", got)
	}
	var empty Result
	if got := empty.PerProcessThroughputGBps(); got != 0 {
		t.Errorf("PerProcessThroughputGBps on empty result = %v, want 0", got)
	}
}

func TestMethodString(t *testing.T) {
	if compare.MethodMerkle.String() != "merkle" ||
		compare.MethodDirect.String() != "direct" ||
		compare.MethodAllClose.String() != "allclose" {
		t.Error("method names wrong")
	}
	if compare.Method(42).String() == "" {
		t.Error("unknown method has empty name")
	}
	if _, err := compare.Method(42).Run(context.Background(), nil, "", "", compare.Options{Epsilon: 1}); err == nil {
		t.Error("unknown method ran")
	}
}

func ExampleRun() {
	fmt.Println("see TestStrongScalingShape")
	// Output: see TestStrongScalingShape
}
