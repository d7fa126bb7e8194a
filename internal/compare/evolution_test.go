package compare

import (
	"context"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// evolutionEnv captures a run whose state changes progressively more per
// iteration.
func evolutionEnv(t *testing.T, opts Options) *pfs.Store {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const elems = 32 << 10
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: elems}}
	base := synth.FieldF32(elems, 1)
	state := base
	for _, step := range []struct {
		iter      int
		untouched float64
	}{{10, 1.0}, {20, 0.9}, {30, 0.5}, {40, 0.0}} {
		pert := synth.DefaultPerturb(int64(step.iter))
		pert.MagLo, pert.MagHi = 1e-3, 1e-2 // always beyond eps
		pert.BlockElems = 1024
		pert.ChangedFrac = 0.05
		pert.UntouchedFrac = step.untouched
		state = synth.PerturbF32(state, pert)
		meta := ckpt.Meta{RunID: "evo", Iteration: step.iter, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, [][]byte{state}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := BuildAndSave(context.Background(), store, ckpt.Name("evo", step.iter, 0), opts); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func TestEvolutionTracksChangeRate(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	store := evolutionEnv(t, opts)
	report, err := Evolution(context.Background(), store, "evo", opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.RunID != "evo" || len(report.Points) != 3 {
		t.Fatalf("report = %+v", report)
	}
	// Change rate grows monotonically by construction (untouched
	// fraction 0.9 -> 0.5 -> 0.0).
	prev := -1.0
	for _, p := range report.Points {
		f := p.ChangedFraction()
		if f < prev {
			t.Errorf("change rate not monotone: %v after %v (point %+v)", f, prev, p)
		}
		prev = f
		if p.TotalChunks == 0 {
			t.Errorf("point %+v has no chunks", p)
		}
	}
	// The final step touched every block: near-total change.
	if last := report.Points[2].ChangedFraction(); last < 0.9 {
		t.Errorf("final change rate %.2f, want near 1", last)
	}
	// The first step changed ~10% of blocks.
	if first := report.Points[0].ChangedFraction(); first > 0.5 {
		t.Errorf("first change rate %.2f, want modest", first)
	}
}

func TestEvolutionWorksOnCompactedHistory(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	store := evolutionEnv(t, opts)
	if _, err := CompactHistory(context.Background(), store, "evo", 0, opts); err != nil {
		t.Fatal(err)
	}
	report, err := Evolution(context.Background(), store, "evo", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 3 {
		t.Errorf("compacted evolution points = %d", len(report.Points))
	}
}

func TestEvolutionValidation(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evolution(context.Background(), store, "none", opts); err == nil {
		t.Error("empty run accepted")
	}
	if _, err := Evolution(context.Background(), store, "none", Options{}); err == nil {
		t.Error("zero options accepted")
	}
}

func TestEvolutionMultiRank(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const elems = 8 << 10
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: elems}}
	for rank := 0; rank < 2; rank++ {
		for _, iter := range []int{10, 20} {
			data := synth.FieldF32(elems, int64(rank*100+iter))
			meta := ckpt.Meta{RunID: "mr", Iteration: iter, Rank: rank, Fields: fields}
			if _, err := ckpt.WriteCheckpoint(store, meta, [][]byte{data}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := BuildAndSave(context.Background(), store, ckpt.Name("mr", iter, rank), opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	report, err := Evolution(context.Background(), store, "mr", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 2 { // one transition per rank
		t.Fatalf("points = %+v", report.Points)
	}
	seenRanks := map[int]bool{}
	for _, p := range report.Points {
		seenRanks[p.Rank] = true
		if p.FromIter != 10 || p.ToIter != 20 {
			t.Errorf("point = %+v", p)
		}
	}
	if !seenRanks[0] || !seenRanks[1] {
		t.Errorf("ranks covered: %v", seenRanks)
	}
}

func TestFieldFilteredComparison(t *testing.T) {
	opts := baseOpts(t, 1e-5, 8<<10)
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(123))
	full, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict to one field: counts shrink to that field only.
	opts.Fields = []string{"phi"}
	env.store.EvictAll()
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalChunks*3 != full.TotalChunks {
		t.Errorf("filtered chunks %d, full %d", res.TotalChunks, full.TotalChunks)
	}
	for _, d := range res.Diffs {
		if d.Field != "phi" {
			t.Errorf("unexpected field %q in filtered result", d.Field)
		}
	}
	// Direct agrees under the same filter.
	env.store.EvictAll()
	rd, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rd.DiffCount != res.DiffCount {
		t.Errorf("filtered: merkle %d diffs, direct %d", res.DiffCount, rd.DiffCount)
	}
	// AllClose accepts the filter too.
	if _, _, err := CompareAllClose(context.Background(), env.store, env.nameA, env.nameB, opts); err != nil {
		t.Fatal(err)
	}
	// Unknown field rejected everywhere.
	opts.Fields = []string{"nope"}
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); err == nil {
		t.Error("merkle accepted unknown field")
	}
	if _, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts); err == nil {
		t.Error("direct accepted unknown field")
	}
	if _, _, err := CompareAllClose(context.Background(), env.store, env.nameA, env.nameB, opts); err == nil {
		t.Error("allclose accepted unknown field")
	}
}
