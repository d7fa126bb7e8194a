package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/aio"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/service"
)

// inproc hosts the service.Plane reprod hosts — same zero Config, same
// journal — inside the benchmark process, for the control and traced
// passes.
type inproc struct {
	plane *service.Plane
	store *pfs.Store
	sess  []*service.Session
	// t0 anchors span timestamps.
	t0 time.Time
}

func openInproc(dir, journal string, w *workload, version string) (*inproc, error) {
	store, err := pfs.NewStore(dir, pfs.LustreModel())
	if err != nil {
		return nil, err
	}
	plane := service.New(service.Config{})
	if _, err := plane.Recover(context.Background(), store, journal); err != nil {
		_ = plane.Close() // the recovery error is the one to report
		return nil, fmt.Errorf("recover %s: %w", journal, err)
	}
	ip := &inproc{plane: plane, store: store, t0: time.Now()}
	for c := 0; c < w.clients; c++ {
		s := plane.Open(tenantOf(c))
		for _, id := range w.runIDs {
			b := runBinding(id, version)
			err := s.Register(service.Binding{RunID: b.RunID, CodeRef: b.CodeRef, Epsilon: b.Epsilon,
				ChunkSize: b.ChunkSize, DatasetVersion: b.DatasetVersion})
			if err != nil {
				_ = plane.Close()
				return nil, err
			}
		}
		ip.sess = append(ip.sess, s)
	}
	return ip, nil
}

// spec maps a job onto the JobSpec reprod builds from the same request.
func spec(j job) service.JobSpec {
	sp := service.JobSpec{
		Kind:     service.JobKind(j.Kind),
		A:        j.A,
		B:        j.B,
		Baseline: j.Baseline,
		Runs:     j.Runs,
		Topology: compare.TopologyStar,
		Options:  compare.Options{Epsilon: j.Epsilon, ChunkSize: j.ChunkSize},
	}
	sp.Shard.Workers = j.ShardWorkers
	return sp
}

// run submits one job on tenant c's session and waits for its verdict.
// A non-nil trace injects the timing wrappers into the job's options.
func (ip *inproc) run(c int, j job, tr *jobTrace) (outcome, error) {
	var o outcome
	sp := spec(j)
	if tr != nil {
		sp.Options.Exec = &timedExec{inner: ip.plane.Executor(), tr: tr}
		sp.Options.Backend = &timedBackend{inner: aio.NewCoalescing(ip.plane.Backend(), 0), tr: tr}
	}
	ops0, bytes0 := ip.store.ReadStats()
	start := time.Now()
	jb, err := ip.sess[c].Submit(ip.store, sp)
	o.submit = time.Since(start)
	if err != nil {
		return o, err
	}
	<-jb.Done()
	o.verdict = time.Since(start)
	if tr != nil {
		tr.span("service.submit", start, start.Add(o.submit))
		tr.span("service.job", start, start.Add(o.verdict))
	}
	ops1, bytes1 := ip.store.ReadStats()
	o.readOps, o.readBytes = ops1-ops0, bytes1-bytes0
	st := jb.Status()
	o.exit, o.diffCount = st.ExitCode, st.DiffCount
	o.res, o.group, o.shard = jb.Result(), jb.Group(), jb.ShardStats()
	if st.Error != "" {
		return o, fmt.Errorf("job %d failed: %s", st.ID, st.Error)
	}
	return o, nil
}

// span is one timed interval of the traced pass, in microseconds since
// the pass began. Spans of one job share its sequence number.
type span struct {
	Job   int    `json:"job"`
	Name  string `json:"name"`
	Start int64  `json:"start_us"`
	End   int64  `json:"end_us"`
}

// jobTrace collects one job's spans and counters. The wrappers may be
// called from several pool goroutines at once.
type jobTrace struct {
	seq int
	t0  time.Time

	mu         sync.Mutex
	spans      []span
	forCalls   int64
	forBusy    time.Duration
	batches    int64
	reqs       int64
	aioBusy    time.Duration
	aioVirtual time.Duration
	aioOps     int64
}

func (t *jobTrace) span(name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Job: t.seq, Name: name,
		Start: start.Sub(t.t0).Microseconds(), End: end.Sub(t.t0).Microseconds()})
	t.mu.Unlock()
}

// timedExec wraps the plane's kernel executor: every call passes through
// unchanged, timed from outside.
type timedExec struct {
	inner device.Executor
	tr    *jobTrace
}

func (e *timedExec) For(n int, fn func(i int)) {
	start := time.Now()
	e.inner.For(n, fn)
	end := time.Now()
	e.tr.mu.Lock()
	e.tr.forCalls++
	e.tr.forBusy += end.Sub(start)
	e.tr.mu.Unlock()
	e.tr.span("device.for", start, end)
}

func (e *timedExec) Workers() int { return e.inner.Workers() }

// timedBackend wraps exactly the backend the plane would inject
// (aio.NewCoalescing over its ring): calls, results and errors pass
// through unchanged, and the pair fast path stays available.
type timedBackend struct {
	inner aio.Coalescing
	tr    *jobTrace
}

var _ aio.PairReader = (*timedBackend)(nil)

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) ReadBatch(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	ops0, _ := f.Store().ReadStats()
	start := time.Now()
	cost, v, err := b.inner.ReadBatch(ctx, f, reqs)
	b.record(start, f.Store(), ops0, len(reqs), v)
	return cost, v, err
}

func (b *timedBackend) ReadBatchPair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	ops0, _ := fA.Store().ReadStats()
	start := time.Now()
	cost, v, err := b.inner.ReadBatchPair(ctx, fA, fB, reqsA, reqsB)
	b.record(start, fA.Store(), ops0, len(reqsA)+len(reqsB), v)
	return cost, v, err
}

// record books one batch. The store's read counter delta is exact
// because the traced pass runs one job at a time.
func (b *timedBackend) record(start time.Time, store *pfs.Store, ops0 int64, reqs int, virtual time.Duration) {
	end := time.Now()
	ops1, _ := store.ReadStats()
	b.tr.mu.Lock()
	b.tr.batches++
	b.tr.reqs += int64(reqs)
	b.tr.aioBusy += end.Sub(start)
	b.tr.aioVirtual += virtual
	b.tr.aioOps += ops1 - ops0
	b.tr.mu.Unlock()
	b.tr.span("aio.batch", start, end)
}
