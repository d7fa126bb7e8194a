package service

import (
	"context"
	"sync"

	"repro/internal/cas"
	"repro/internal/compare"
	"repro/internal/pfs"
	"repro/internal/shard"
)

// Session is one tenant's submission surface on a plane. Every compare
// entry point the repro facade exposes exists here as a method; each
// submission normalizes its options against the plane's resources,
// validates the named runs against the tenant's immutable bindings,
// passes admission control, and executes on the shared pool and ring.
// Sessions are safe for concurrent use; per-session statistics are
// accounted atomically per submission, so concurrent sessions never
// interleave each other's counters.
type Session struct {
	plane  *Plane
	tenant *tenant

	mu    sync.Mutex
	stats Stats
}

// Stats counts one session's submissions by outcome. Rejected counts
// submissions that never ran (binding violations, admission rejections,
// plane closed); Failed counts admitted comparisons that returned an
// error; Divergent and Degraded classify completed verdicts (a verdict
// can be both).
type Stats struct {
	Submitted int
	Rejected  int
	Completed int
	Failed    int
	Divergent int
	Degraded  int
}

// Tenant returns the tenant the session submits as.
func (s *Session) Tenant() string { return s.tenant.id }

// Plane returns the plane the session runs on.
func (s *Session) Plane() *Plane { return s.plane }

// Stats returns a copy of the session's counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Register installs an immutable run binding in the tenant's catalog.
// Re-registering an identical binding is a no-op; a conflicting one
// returns a *BindingError and changes nothing.
func (s *Session) Register(b Binding) error { return s.tenant.register(b) }

// Binding returns the tenant's binding for a run ID, if registered.
func (s *Session) Binding(runID string) (Binding, bool) { return s.tenant.lookup(runID) }

// Bindings lists the tenant's catalog sorted by run ID.
func (s *Session) Bindings() []Binding { return s.tenant.list() }

// bind normalizes the options on the plane and validates every named
// run against the tenant's bindings.
func (s *Session) bind(opts compare.Options, names ...string) (compare.Options, error) {
	n, err := s.plane.normalizeOptions(opts)
	if err != nil {
		return compare.Options{}, err
	}
	for _, name := range names {
		if err := s.tenant.checkRun(name, n.Epsilon, n.ChunkSize); err != nil {
			return compare.Options{}, err
		}
	}
	return n, nil
}

// admit passes admission control, blocking while queued. The returned
// release hands the slot back (idempotent); err means nothing was
// admitted.
func (s *Session) admit(ctx context.Context) (release func(), err error) {
	t, err := s.plane.sched.reserve(s.tenant)
	if err != nil {
		s.reject()
		return nil, err
	}
	if err := s.plane.sched.wait(ctx, t); err != nil {
		s.reject()
		return nil, err
	}
	return func() { s.plane.sched.release(t) }, nil
}

// Accounting: every public submission counts Submitted once, then
// exactly one of Rejected / Failed / Completed.

func (s *Session) submitted() {
	s.mu.Lock()
	s.stats.Submitted++
	s.mu.Unlock()
}

func (s *Session) reject() {
	s.mu.Lock()
	s.stats.Rejected++
	s.mu.Unlock()
}

// finish classifies one executed comparison into the counters.
func (s *Session) finish(o compare.Outcome, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.stats.Failed++
		return
	}
	s.stats.Completed++
	if o.Diverged {
		s.stats.Divergent++
	}
	if o.Degraded {
		s.stats.Degraded++
	}
}

// call is the one admitted-call path every synchronous entry point runs
// through: count the submission, bind its options and named runs, pass
// admission, run, classify the outcome into the stats, and release the
// slot. A nil outcome marks calls that prove no verdict (state
// evolution, compaction); it is consulted only when run succeeded.
func call[T any](ctx context.Context, s *Session, opts compare.Options, names []string,
	run func(compare.Options) (T, error), outcome func(T) compare.Outcome) (T, error) {
	var zero T
	s.submitted()
	opts, err := s.bind(opts, names...)
	if err != nil {
		s.reject()
		return zero, err
	}
	release, err := s.admit(ctx)
	if err != nil {
		return zero, err
	}
	defer release()
	v, err := run(opts)
	var o compare.Outcome
	if err == nil && outcome != nil {
		o = outcome(v)
	}
	s.finish(o, err)
	return v, err
}

// members lists a group comparison's run-bearing names, baseline first.
func members(baseline string, runs []string) []string { return append([]string{baseline}, runs...) }

// Compare runs the two-stage Merkle comparison of one checkpoint pair.
func (s *Session) Compare(ctx context.Context, store *pfs.Store, nameA, nameB string, opts compare.Options) (*compare.Result, error) {
	return call(ctx, s, opts, []string{nameA, nameB}, func(o compare.Options) (*compare.Result, error) {
		return compare.CompareMerkle(ctx, store, nameA, nameB, o)
	}, (*compare.Result).Outcome)
}

// CompareDirect runs the optimized element-wise baseline.
func (s *Session) CompareDirect(ctx context.Context, store *pfs.Store, nameA, nameB string, opts compare.Options) (*compare.Result, error) {
	return call(ctx, s, opts, []string{nameA, nameB}, func(o compare.Options) (*compare.Result, error) {
		return compare.CompareDirect(ctx, store, nameA, nameB, o)
	}, (*compare.Result).Outcome)
}

// AllClose runs the naive boolean baseline.
func (s *Session) AllClose(ctx context.Context, store *pfs.Store, nameA, nameB string, opts compare.Options) (bool, error) {
	return call(ctx, s, opts, []string{nameA, nameB}, func(o compare.Options) (bool, error) {
		ok, _, err := compare.CompareAllClose(ctx, store, nameA, nameB, o)
		return ok, err
	}, func(ok bool) compare.Outcome { return compare.Outcome{Diverged: !ok} })
}

// CompareTreesOnly answers from metadata alone (works on compacted
// history).
func (s *Session) CompareTreesOnly(ctx context.Context, store *pfs.Store, nameA, nameB string, opts compare.Options) (*compare.Result, error) {
	return call(ctx, s, opts, []string{nameA, nameB}, func(o compare.Options) (*compare.Result, error) {
		return compare.CompareTreesOnly(ctx, store, nameA, nameB, o)
	}, (*compare.Result).Outcome)
}

// CompareHistories aligns and compares two runs' checkpoint histories.
func (s *Session) CompareHistories(ctx context.Context, store *pfs.Store, runA, runB string, method compare.Method, opts compare.Options) (*compare.HistoryReport, error) {
	return call(ctx, s, opts, []string{runA, runB}, func(o compare.Options) (*compare.HistoryReport, error) {
		return compare.CompareHistories(ctx, store, runA, runB, method, o)
	}, (*compare.HistoryReport).Outcome)
}

// GroupCompare compares N runs' checkpoints as one group plan.
func (s *Session) GroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology compare.Topology, opts compare.Options) (*compare.GroupReport, error) {
	return call(ctx, s, opts, members(baseline, runs), func(o compare.Options) (*compare.GroupReport, error) {
		return compare.GroupCompare(ctx, store, baseline, runs, topology, o)
	}, (*compare.GroupReport).Outcome)
}

// CompareDiff compares two differentially captured checkpoints through
// the plane's shared CAS handle for the store.
func (s *Session) CompareDiff(ctx context.Context, store *pfs.Store, cs *cas.Store, nameA, nameB string, opts compare.Options) (*compare.Result, error) {
	return call(ctx, s, opts, []string{nameA, nameB}, func(o compare.Options) (*compare.Result, error) {
		return compare.CompareDiff(ctx, store, cs, nameA, nameB, o)
	}, (*compare.Result).Outcome)
}

// GroupCompareDiff compares N differentially captured runs as one plan.
func (s *Session) GroupCompareDiff(ctx context.Context, store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology compare.Topology, opts compare.Options) (*compare.GroupReport, error) {
	return call(ctx, s, opts, members(baseline, runs), func(o compare.Options) (*compare.GroupReport, error) {
		return compare.GroupCompareDiff(ctx, store, cs, baseline, runs, topology, o)
	}, (*compare.GroupReport).Outcome)
}

// ShardCompare runs one comparison sharded across simulated workers.
func (s *Session) ShardCompare(ctx context.Context, store *pfs.Store, nameA, nameB string, cfg shard.Config, opts compare.Options) (*compare.Result, *shard.Stats, error) {
	var stats *shard.Stats
	res, err := call(ctx, s, opts, []string{nameA, nameB}, func(o compare.Options) (res *compare.Result, err error) {
		res, stats, err = shard.Compare(ctx, store, nameA, nameB, cfg, o)
		return res, err
	}, (*compare.Result).Outcome)
	return res, stats, err
}

// ShardGroupCompare pools a group comparison's stage 2 into one fleet.
func (s *Session) ShardGroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology compare.Topology, cfg shard.Config, opts compare.Options) (*compare.GroupReport, *shard.Stats, error) {
	var stats *shard.Stats
	rep, err := call(ctx, s, opts, members(baseline, runs), func(o compare.Options) (rep *compare.GroupReport, err error) {
		rep, stats, err = shard.GroupCompare(ctx, store, baseline, runs, topology, cfg, o)
		return rep, err
	}, (*compare.GroupReport).Outcome)
	return rep, stats, err
}

// Analyze profiles two checkpoints' divergence magnitudes (the ε-picking
// tool). No ε is involved, so there are no options to bind and bindings
// are not consulted, but the full data read passes admission like any
// comparison.
func (s *Session) Analyze(ctx context.Context, store *pfs.Store, nameA, nameB string) (*compare.Analysis, error) {
	s.submitted()
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	a, err := compare.Analyze(ctx, store, nameA, nameB)
	s.finish(compare.Outcome{}, err)
	return a, err
}

// Evolution builds a run's state-evolution profile from metadata.
func (s *Session) Evolution(ctx context.Context, store *pfs.Store, runID string, opts compare.Options) (*compare.EvolutionReport, error) {
	return call(ctx, s, opts, []string{runID}, func(o compare.Options) (*compare.EvolutionReport, error) {
		return compare.Evolution(ctx, store, runID, o)
	}, nil)
}

// CompactHistory compacts a run's older checkpoints to metadata-only
// form through the plane.
func (s *Session) CompactHistory(ctx context.Context, store *pfs.Store, runID string, keepLatest int, opts compare.Options) (*compare.CompactReport, error) {
	return call(ctx, s, opts, []string{runID}, func(o compare.Options) (*compare.CompactReport, error) {
		return compare.CompactHistory(ctx, store, runID, keepLatest, o)
	}, nil)
}

// BuildAndSave builds and saves a checkpoint's metadata with the plane's
// resources. Capture-side work is not admission-gated or counted in the
// session stats (it is the checkpointing path, not a served comparison),
// but bound runs must still be captured at their bound coordinates.
func (s *Session) BuildAndSave(ctx context.Context, store *pfs.Store, name string, opts compare.Options) (*compare.Metadata, compare.BuildStats, error) {
	n, err := s.bind(opts, name)
	if err != nil {
		return nil, compare.BuildStats{}, err
	}
	return compare.BuildAndSave(ctx, store, name, n)
}
