package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/shard"
	"repro/internal/synth"
)

// recycleJob is one submission of the recycled-buffer sequence, with the
// fault hook (if any) it runs under.
type recycleJob struct {
	label  string
	spec   JobSpec
	faults func() pfs.FaultHook
}

// recycleOutcome is everything a job publishes, timing fields scrubbed.
type recycleOutcome struct {
	res   *compare.Result
	group *compare.GroupReport
	stats *shard.Stats
	err   string
}

func runRecycleJob(t *testing.T, p *Plane, store *pfs.Store, job recycleJob) recycleOutcome {
	t.Helper()
	store.EvictAll()
	if job.faults != nil {
		store.SetFaultHook(job.faults())
		defer store.SetFaultHook(nil)
	}
	j, err := p.Open("recycle").Submit(store, job.spec)
	if err != nil {
		t.Fatalf("%s: submit: %v", job.label, err)
	}
	<-j.Done()
	return recycleOutcome{
		res:   scrubResult(j.Result()),
		group: scrubGroup(j.Group()),
		stats: j.ShardStats(),
		err:   j.Status().Error,
	}
}

// TestRecycledBuffersNeverLeak runs a divergent compare, compares against
// a truncated container (failing and degraded, each right after the same
// compare against its intact twin), a divergent group, a sharded job, a
// clean compare and a fault-injected degraded compare back to back on one
// plane — so every stage-2 buffer after the
// first comes out of the recycler holding an earlier job's bytes — and
// requires each job's outcome to equal, field for field, the same job on
// a fresh plane with an emptied recycler. A buffer compared before a read
// overwrote it would surface as a phantom diff (the clean compare is the
// sharpest probe: it must stay clean after the divergent jobs).
func TestRecycledBuffersNeverLeak(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const elems = 32 << 10
	fields := []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: elems},
		{Name: "vx", DType: errbound.Float32, Count: elems},
	}
	base := [][]byte{synth.FieldF32(elems, 1), synth.FieldF32(elems, 2)}
	perturb := func(mlo, mhi float64, seed int64) [][]byte {
		cfg := synth.PerturbConfig{Seed: seed, BlockElems: 512, MagLo: mlo, MagHi: mhi, UntouchedFrac: 0.4, ChangedFrac: 0.3}
		return [][]byte{synth.PerturbF32(base[0], cfg), synth.PerturbF32(base[1], cfg)}
	}
	runs := map[string][][]byte{
		"runA": base,
		"runB": perturb(1e-4, 1e-2, 7), // diverges beyond ε
		"runC": perturb(1e-7, 5e-6, 8), // within ε, but crosses grid cells
	}
	name := func(run string) string { return ckpt.Name(run, 10, 0) }
	for run, data := range runs {
		if _, err := ckpt.WriteCheckpoint(store, ckpt.Meta{RunID: run, Iteration: 10, Fields: fields}, data); err != nil {
			t.Fatal(err)
		}
		m, _, err := compare.Build(fields, data, svcOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare.SaveMetadata(store, name(run), m); err != nil {
			t.Fatal(err)
		}
	}

	// Run D diverges like run B, but its container is cut off inside the
	// last field after its metadata was saved (a write that died
	// mid-Encode): the header still parses, and the last candidate chunks'
	// reads come back short. Such a read must fail, not compare the
	// buffer's unread tail, which on a reused plane holds an earlier job's
	// bytes. Run E is D intact, so comparing it first leaves exactly the
	// missing bytes in the buffers the truncated compare then reuses.
	intact := perturb(1e-4, 1e-2, 9)
	for _, run := range []string{"runD", "runE"} {
		if _, err := ckpt.WriteCheckpoint(store, ckpt.Meta{RunID: run, Iteration: 10, Fields: fields}, intact); err != nil {
			t.Fatal(err)
		}
		m, _, err := compare.Build(fields, intact, svcOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare.SaveMetadata(store, name(run), m); err != nil {
			t.Fatal(err)
		}
	}
	pathD := filepath.Join(store.Root(), name("runD"))
	st, err := os.Stat(pathD)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(pathD, st.Size()-elems*4/3); err != nil {
		t.Fatal(err)
	}

	// The degraded job fails every read of run B's container after its
	// stage-1 reads (open and metadata), counted here on a rule-free
	// injector, so exactly the stage-2 reads fail on every plane.
	ctx := context.Background()
	store.EvictAll()
	probe := faults.New(1)
	store.SetFaultHook(probe)
	r, _, err := ckpt.OpenReader(store, name("runB"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := compare.LoadMetadata(ctx, store, name("runB")); err != nil {
		t.Fatal(err)
	}
	store.SetFaultHook(nil)
	stage1Reads := int(probe.Stats().ReadOps)

	degraded := svcOpts()
	degraded.Degrade = true
	jobs := []recycleJob{
		{label: "divergent compare", spec: JobSpec{Kind: JobCompare, A: name("runA"), B: name("runB"), Options: svcOpts()}},
		{label: "intact twin compare", spec: JobSpec{Kind: JobCompare, A: name("runA"), B: name("runE"), Options: svcOpts()}},
		{label: "truncated compare", spec: JobSpec{Kind: JobCompare, A: name("runA"), B: name("runD"), Options: svcOpts()}},
		{label: "intact twin compare, degraded", spec: JobSpec{Kind: JobCompare, A: name("runA"), B: name("runE"), Options: degraded}},
		{label: "truncated degraded compare", spec: JobSpec{Kind: JobCompare, A: name("runA"), B: name("runD"), Options: degraded}},
		{label: "divergent group", spec: JobSpec{Kind: JobGroup, Baseline: name("runA"), Runs: []string{name("runB"), name("runC")},
			Topology: compare.TopologyAllPairs, Options: svcOpts()}},
		{label: "shard", spec: JobSpec{Kind: JobShard, A: name("runA"), B: name("runB"), Shard: shard.Config{Workers: 2}, Options: svcOpts()}},
		{label: "clean compare", spec: JobSpec{Kind: JobCompare, A: name("runA"), B: name("runC"), Options: svcOpts()}},
		{label: "degraded compare", spec: JobSpec{Kind: JobCompare, A: name("runA"), B: name("runB"), Options: degraded},
			faults: func() pfs.FaultHook {
				return faults.New(2, faults.Rule{Kind: faults.PermanentRead, Name: name("runB"), After: stage1Reads, Count: -1})
			}},
	}

	shared := testPlane(t, Config{})
	got := make([]recycleOutcome, len(jobs))
	for i, job := range jobs {
		got[i] = runRecycleJob(t, shared, store, job)
	}
	for i, job := range jobs {
		// An emptied recycler makes the fresh run's stage-2 buffers newly
		// allocated and zeroed.
		bufpool.Drain()
		want := runRecycleJob(t, testPlane(t, Config{}), store, job)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s on a reused plane differs from a fresh plane:\nreused: %+v %+v %+v %q\n fresh: %+v %+v %+v %q",
				job.label, got[i].res, got[i].group, got[i].stats, got[i].err, want.res, want.group, want.stats, want.err)
		}
	}

	// The sequence must exercise what it claims to.
	if res := got[0].res; res == nil || res.DiffCount == 0 {
		t.Fatalf("divergent compare found no divergence: %+v", got[0])
	}
	if !strings.Contains(got[2].err, "short read") {
		t.Fatalf("truncated compare must fail on the short read: %+v", got[2])
	}
	if deg := got[4].res; deg == nil || !deg.Degraded || deg.UnverifiedChunks <= got[3].res.UnverifiedChunks {
		t.Fatalf("truncated degraded compare did not degrade beyond its intact twin: %+v vs %+v", got[4], got[3])
	}
	if clean := got[7].res; clean == nil || clean.CandidateChunks == 0 || clean.DiffCount != 0 {
		t.Fatalf("clean compare must verify candidates and find nothing: %+v", got[3])
	}
	if deg := got[8].res; deg == nil || !deg.Degraded || deg.UnverifiedChunks == 0 {
		t.Fatalf("fault-injected compare did not degrade: %+v", got[8])
	}
}
