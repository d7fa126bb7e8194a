package service

import (
	"context"
	"testing"

	"repro/internal/compare"
	"repro/internal/faults"
	"repro/internal/pfs"
)

// TestSubmitRightAfterDoneIsAdmitted pins the release ordering: a job
// hands its scheduler slot back before it publishes, so a submission
// issued the moment the previous job's Done closes finds the slot and the
// tenant quota free. With one slot, one queue place and a quota of one,
// any publish-before-release window rejects a submission here.
func TestSubmitRightAfterDoneIsAdmitted(t *testing.T) {
	e := newSvcEnv(t, 2<<10, 5)
	p := New(Config{MaxInFlight: 1, MaxQueued: 1, TenantPending: 1})
	defer p.Close()
	s := p.Open("serial")
	const n = 300
	for i := 0; i < n; i++ {
		job, err := s.Submit(e.store, JobSpec{Kind: JobCompare, A: e.nameA, B: e.nameB, Options: svcOpts()})
		if err != nil {
			t.Fatalf("submission %d, issued right after the previous job's Done: %v", i, err)
		}
		<-job.Done()
	}
	if st := s.Stats(); st.Submitted != n || st.Completed != n || st.Rejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLedgerStatusMatchesLive: a done job's Status and the status the
// ledger serves for it after a restart render the same verdict record,
// so they agree field for field — for a clean, a divergent and a
// degraded verdict.
func TestLedgerStatusMatchesLive(t *testing.T) {
	e := newSvcEnv(t, 16<<10, 21)
	journal, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p1 := New(Config{})
	if _, err := p1.Recover(ctx, journal, ""); err != nil {
		t.Fatal(err)
	}
	s := p1.Open("audit")
	run := func(spec JobSpec, hook pfs.FaultHook) *Job {
		t.Helper()
		e.store.SetFaultHook(hook)
		defer e.store.SetFaultHook(nil)
		job, err := s.Submit(e.store, spec)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		return job
	}
	degrade := svcOpts()
	degrade.Degrade = true
	jobs := map[string]*Job{
		"clean":     run(JobSpec{Kind: JobCompare, A: e.nameA, B: e.nameA, Options: svcOpts()}, nil),
		"divergent": run(JobSpec{Kind: JobGroup, Baseline: e.nameA, Runs: []string{e.nameB}, Topology: compare.TopologyStar, Options: svcOpts()}, nil),
		"degraded": run(JobSpec{Kind: JobCompare, A: e.nameA, B: e.nameB, Options: degrade},
			faults.New(3, faults.Rule{Kind: faults.PermanentRead, Name: ".ckpt", After: 4, Count: 1 << 20})),
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := New(Config{})
	defer p2.Close()
	rec, err := p2.Recover(ctx, journal, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Resumed) != 0 {
		t.Fatalf("%d jobs re-admitted, want every job in the ledger", len(rec.Resumed))
	}
	for verdict, job := range jobs {
		live := job.Status()
		if live.Verdict != verdict {
			t.Fatalf("%s job: live verdict %q (status %+v)", verdict, live.Verdict, live)
		}
		served, ok := rec.Ledger[job.ID()]
		if !ok {
			t.Fatalf("%s job %d missing from the ledger", verdict, job.ID())
		}
		select {
		case <-served.Done():
		default:
			t.Errorf("%s job: ledger job's Done is open", verdict)
		}
		if got := served.Status(); got != live {
			t.Errorf("%s job: ledger status %+v, live status %+v", verdict, got, live)
		}
	}
}
