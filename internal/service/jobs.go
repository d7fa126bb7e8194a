package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/pfs"
	"repro/internal/shard"
	"repro/internal/wal"
)

// JobKind selects what a submitted job runs.
type JobKind string

// Job kinds.
const (
	// JobCompare is a two-checkpoint Merkle comparison (Spec.A vs
	// Spec.B).
	JobCompare JobKind = "compare"
	// JobGroup is an N-run group comparison (Spec.Baseline, Spec.Runs,
	// Spec.Topology).
	JobGroup JobKind = "group"
	// JobShard is a subtree-sharded comparison (Spec.A vs Spec.B over
	// Spec.Shard workers).
	JobShard JobKind = "shard"
)

// JobSpec describes one asynchronous submission.
type JobSpec struct {
	Kind     JobKind
	A, B     string
	Baseline string
	Runs     []string
	Topology compare.Topology
	Shard    shard.Config
	Options  compare.Options
}

// validate checks the spec's shape for its kind.
func (sp JobSpec) validate() error {
	switch sp.Kind {
	case JobCompare, JobShard:
		if sp.A == "" || sp.B == "" {
			return fmt.Errorf("service: %s job needs two checkpoint names", sp.Kind)
		}
	case JobGroup:
		if sp.Baseline == "" || len(sp.Runs) == 0 {
			return fmt.Errorf("service: group job needs a baseline and at least one run")
		}
	default:
		return fmt.Errorf("service: unknown job kind %q", sp.Kind)
	}
	return nil
}

// names returns every run-bearing name the spec touches, for binding
// validation.
func (sp JobSpec) names() []string {
	if sp.Kind == JobGroup {
		return members(sp.Baseline, sp.Runs)
	}
	return []string{sp.A, sp.B}
}

// JobState is a job's lifecycle position.
type JobState int

// Job states, in order.
const (
	// JobQueued: admitted, waiting for an execution slot.
	JobQueued JobState = iota
	// JobRunning: holding a slot, comparison in progress.
	JobRunning
	// JobDone: verdict published; Done() is closed.
	JobDone
)

// String returns the state's wire name.
func (st JobState) String() string {
	switch st {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	default:
		return "unknown"
	}
}

// Job is one asynchronous submission in flight. Snapshot its state with
// Status; wait for the verdict on Done.
type Job struct {
	id     uint64
	kind   JobKind
	tenant string
	done   chan struct{}

	mu    sync.Mutex
	state JobState
	// verdict is the job's verdict record once done: the one Status
	// renders, whether or not a journal made it durable.
	verdict wal.Record
	result  *compare.Result
	group   *compare.GroupReport
	shardst *shard.Stats
}

// jobIDs numbers jobs process-wide.
var jobIDs atomic.Uint64

// ID returns the job's plane-unique identifier.
func (j *Job) ID() uint64 { return j.id }

// Done closes when the verdict is published.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the pair result for compare/shard jobs, nil before
// completion, for group jobs, or for a job served from the ledger.
func (j *Job) Result() *compare.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Group returns the group report for group jobs, nil otherwise (and for
// a job served from the ledger).
func (j *Job) Group() *compare.GroupReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.group
}

// ShardStats returns the schedule stats for shard jobs, nil otherwise
// (and for a job served from the ledger).
func (j *Job) ShardStats() *shard.Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shardst
}

// JobStatus is a wire-friendly snapshot of one job.
type JobStatus struct {
	ID       uint64 `json:"id"`
	Kind     string `json:"kind"`
	Tenant   string `json:"tenant"`
	State    string `json:"state"`
	Verdict  string `json:"verdict,omitempty"`
	ExitCode int    `json:"exitCode"`
	Error    string `json:"error,omitempty"`
	// DiffCount and Degraded summarize the verdict's evidence once
	// done: total out-of-bound elements (pair jobs; -1 is "diverged,
	// count unknown") and whether any path degraded.
	DiffCount int64 `json:"diffCount,omitempty"`
	Degraded  bool  `json:"degraded,omitempty"`
}

// Status snapshots the job. A done job renders its verdict record, so a
// live verdict and the same verdict served from the ledger after a
// restart are identical by construction.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobDone {
		rec := j.verdict
		return JobStatus{
			ID:        rec.Job,
			Kind:      rec.Kind,
			Tenant:    rec.Tenant,
			State:     JobDone.String(),
			Verdict:   compare.Verdict(rec.Exit).String(),
			ExitCode:  rec.Exit,
			Error:     rec.ErrMsg,
			DiffCount: rec.DiffCount,
			Degraded:  rec.Degraded,
		}
	}
	return JobStatus{ID: j.id, Kind: string(j.kind), Tenant: j.tenant, State: j.state.String()}
}

// Submit runs a job asynchronously: options normalization and binding
// validation happen synchronously (a violation is a submission error),
// as does the admission decision (an *AdmissionError carries the
// backpressure price — the daemon's 429). On a journaled plane the
// accepted record is durable before Submit returns — durability is part
// of acceptance, so a journal failure rolls the admission back and the
// submission fails. The returned job is already queued or running; its
// goroutine is joined by Plane.Close, which also fails queued jobs with
// ErrPlaneClosed instead of abandoning them.
func (s *Session) Submit(store *pfs.Store, spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		s.reject()
		return nil, err
	}
	return s.enqueue(store, spec, 0)
}

// resume re-admits one accepted-but-unfinished journal record under its
// original job ID (Plane.Recover's re-admission path). The accepted
// record already exists in the ledger, so none is appended; started and
// verdict records chain normally as the job re-runs.
func (s *Session) resume(store *pfs.Store, rec wal.Record) (*Job, error) {
	spec, err := specFromRecord(rec)
	if err != nil {
		return nil, err
	}
	return s.enqueue(store, spec, rec.Job)
}

// enqueue is the one asynchronous admission path: count the submission,
// bind its options and named runs, reserve a slot, and start the
// detached job. A zero id is a fresh submission: it gets a new job ID,
// and its accepted record is journaled before enqueue returns. A
// non-zero id re-admits a journaled job under that ID.
func (s *Session) enqueue(store *pfs.Store, spec JobSpec, id uint64) (*Job, error) {
	s.submitted()
	opts, err := s.bind(spec.Options, spec.names()...)
	if err != nil {
		s.reject()
		return nil, err
	}
	spec.Options = opts
	t, err := s.plane.sched.reserve(s.tenant)
	if err != nil {
		s.reject()
		return nil, err
	}
	if id == 0 {
		id = jobIDs.Add(1)
		if err := s.journalAppend(acceptedRecord(id, s.tenant.id, spec)); err != nil {
			s.plane.sched.abort(t)
			s.reject()
			return nil, fmt.Errorf("service: journal accepted record: %w", err)
		}
	}
	j := &Job{id: id, kind: spec.Kind, tenant: s.tenant.id, done: make(chan struct{})}
	s.plane.jobs.Add(1)
	//lint:ignore gocheck joined by Plane.Close via plane.jobs.Wait
	go s.runJob(j, t, store, spec)
	return j, nil
}

// journalAppend appends one lifecycle record when the plane has a
// journal attached; a plane without one runs non-durably and the append
// is a no-op.
func (s *Session) journalAppend(rec wal.Record) error {
	jn := s.plane.journalHandle()
	if jn == nil {
		return nil
	}
	_, err := jn.Append(rec)
	return err
}

// runJob drives one detached job to its verdict. The scheduler slot is
// released before the verdict is published, so a submission issued
// right after Done sees the slot and the tenant quota free again.
func (s *Session) runJob(j *Job, t *ticket, store *pfs.Store, spec JobSpec) {
	defer s.plane.jobs.Done()
	// Detached execution is governed by the plane lifecycle, not the
	// submitting request: a canceled HTTP request must not kill the
	// admitted comparison, and Plane.Close fails the ticket instead.
	//lint:ignore ctxflow detached job outlives the submitting request; Plane.Close is its cancellation
	ctx := context.Background()
	if err := s.plane.sched.wait(ctx, t); err != nil {
		s.reject()
		// A plane-closed rejection is deliberately NOT journaled as a
		// verdict: the job stays pending in the ledger, and the next
		// life re-admits and re-runs it to its one durable verdict.
		j.publish(verdictRecord(j.id, j.tenant, spec, nil, nil, err), nil, nil, nil)
		return
	}
	rec, res, rep, stats := s.execJob(ctx, j, store, spec)
	s.plane.sched.release(t)
	j.publish(rec, res, rep, stats)
}

// execJob runs one admitted job and journals its verdict record,
// returning what the job publishes. Durable-then-visible: if the
// verdict record cannot be made durable, the job fails for THIS life
// only — the ledger still lists it pending, and the next life re-runs
// it to its one durable verdict.
func (s *Session) execJob(ctx context.Context, j *Job, store *pfs.Store, spec JobSpec) (
	wal.Record, *compare.Result, *compare.GroupReport, *shard.Stats) {
	if err := s.journalAppend(startedRecord(j.id, j.tenant, spec)); err != nil {
		s.finish(compare.Outcome{}, err)
		return verdictRecord(j.id, j.tenant, spec, nil, nil, err), nil, nil, nil
	}
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()

	var (
		res   *compare.Result
		rep   *compare.GroupReport
		stats *shard.Stats
		err   error
	)
	switch spec.Kind {
	case JobCompare:
		res, err = compare.CompareMerkle(ctx, store, spec.A, spec.B, spec.Options)
	case JobGroup:
		rep, err = compare.GroupCompare(ctx, store, spec.Baseline, spec.Runs, spec.Topology, spec.Options)
	case JobShard:
		res, stats, err = shard.Compare(ctx, store, spec.A, spec.B, spec.Shard, spec.Options)
	}
	s.finish(outcomeOf(res, rep), err)
	rec := verdictRecord(j.id, j.tenant, spec, res, rep, err)
	if jerr := s.journalAppend(rec); jerr != nil {
		err := fmt.Errorf("service: journal verdict record: %w", jerr)
		return verdictRecord(j.id, j.tenant, spec, nil, nil, err), nil, nil, nil
	}
	return rec, res, rep, stats
}

// publish records the outcome and closes Done.
func (j *Job) publish(verdict wal.Record, res *compare.Result, rep *compare.GroupReport, stats *shard.Stats) {
	j.mu.Lock()
	j.state = JobDone
	j.verdict = verdict
	j.result = res
	j.group = rep
	j.shardst = stats
	j.mu.Unlock()
	close(j.done)
}
