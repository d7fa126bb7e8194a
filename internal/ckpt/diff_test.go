package ckpt

import (
	"context"

	"testing"

	"repro/internal/cas"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

func diffFixture(t *testing.T) (*pfs.Store, *cas.Store) {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := cas.Open(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	return store, cs
}

func diffMeta(iter int) Meta {
	return Meta{RunID: "run", Iteration: iter, Rank: 0, Fields: []FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: 16384},
		{Name: "phi", DType: errbound.Float32, Count: 16384},
	}}
}

func TestWriteCheckpointDiffColdThenWarm(t *testing.T) {
	store, cs := diffFixture(t)
	pool := device.NewPool(4)
	defer pool.Close()
	cfg := DiffConfig{Epsilon: 1e-5, ChunkSize: 4 << 10, Exec: pool}

	data0 := [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}
	res0, err := WriteCheckpointDiff(store, cs, diffMeta(0), data0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res0.Cold || res0.Changed != nil {
		t.Fatalf("first capture not cold: cold=%v changed=%v", res0.Cold, res0.Changed)
	}
	if res0.Stats.ChunksWritten != res0.Stats.Chunks || res0.Stats.DedupHits != 0 {
		t.Fatalf("cold capture stats %+v", res0.Stats)
	}

	// Warm capture: mutate two chunks of field 0, leave field 1 untouched.
	data1 := [][]byte{append([]byte{}, data0[0]...), data0[1]}
	copy(data1[0][0:], synth.FieldF32(1024, 99))      // chunk 0
	copy(data1[0][8<<10:], synth.FieldF32(1024, 100)) // chunk 2
	cfg.Prev = res0.Manifest
	res1, err := WriteCheckpointDiff(store, cs, diffMeta(1), data1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cold {
		t.Fatal("warm capture reported cold")
	}
	if got := res1.Changed[0]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("changed chunks of field 0: %v, want [0 2]", got)
	}
	if len(res1.Changed[1]) != 0 {
		t.Fatalf("untouched field reported %v changed", res1.Changed[1])
	}
	if res1.Stats.ChunksWritten != 2 {
		t.Fatalf("warm capture wrote %d chunks, want 2", res1.Stats.ChunksWritten)
	}
	if res1.Stats.DedupHits != res1.Stats.Chunks-2 {
		t.Fatalf("warm capture stats %+v", res1.Stats)
	}

	// The manifest round-trips and its extents reproduce the data.
	m, _, err := cas.LoadManifest(context.Background(), store, Name("run", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !cas.SameSchema(m, res1.Manifest) {
		t.Fatal("loaded manifest schema differs")
	}
	f, err := cs.Pack()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for fi := range m.Fields {
		for ci, loc := range m.Fields[fi].Locs {
			buf := make([]byte, loc.Len)
			if _, _, err := f.ReadAt(buf, loc.Off); err != nil {
				t.Fatal(err)
			}
			lo := ci * m.ChunkSize
			want := data1[fi][lo : lo+int(loc.Len)]
			for k := range buf {
				if buf[k] != want[k] {
					t.Fatalf("field %d chunk %d byte %d differs after gather", fi, ci, k)
				}
			}
		}
	}
}

func TestWriteCheckpointDiffSchemaChangeGoesCold(t *testing.T) {
	store, cs := diffFixture(t)
	cfg := DiffConfig{Epsilon: 1e-5, ChunkSize: 4 << 10}
	data := [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}
	res0, err := WriteCheckpointDiff(store, cs, diffMeta(0), data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same data, different ε: digests are not comparable, must go cold.
	cfg.Prev = res0.Manifest
	cfg.Epsilon = 1e-6
	res1, err := WriteCheckpointDiff(store, cs, diffMeta(1), data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Cold {
		t.Fatal("ε change did not select the cold path")
	}
}

func TestWriteCheckpointDiffPartialCostOnError(t *testing.T) {
	store, cs := diffFixture(t)
	cfg := DiffConfig{Epsilon: 1e-5, ChunkSize: 4 << 10}
	data := [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}

	// Fail pack writes after the first: field 0 lands, field 1 tears.
	inj := faults.New(5, faults.Rule{Kind: faults.PermanentWrite, Name: "cas/pack", After: 1, Count: -1})
	store.SetFaultHook(inj)
	res, err := WriteCheckpointDiff(store, cs, diffMeta(0), data, cfg)
	store.SetFaultHook(nil)
	if err == nil {
		t.Fatal("injected write fault did not surface")
	}
	if res.Cost.Bytes == 0 {
		t.Fatal("error path dropped the partial capture cost")
	}
	if res.Stats.ChunksWritten == 0 {
		t.Fatal("error path dropped the partial capture stats")
	}
}

// TestWriteCheckpointPartialCostOnError pins the satellite fix: a torn
// write mid-container still reports the persisted prefix in the cost.
func TestWriteCheckpointPartialCostOnError(t *testing.T) {
	store, _ := diffFixture(t)
	// After: 1 skips the header write and tears the first field write, so
	// the partial cost must cover the header plus the 512-byte torn prefix.
	inj := faults.New(6, faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", After: 1, Count: 1, Keep: 512})
	store.SetFaultHook(inj)
	cost, err := WriteCheckpoint(store, diffMeta(0), [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)})
	store.SetFaultHook(nil)
	if err == nil {
		t.Fatal("torn write did not surface")
	}
	if cost.Bytes <= 512 {
		t.Fatalf("partial cost %d bytes, want header + 512-byte torn prefix", cost.Bytes)
	}
}

// TestCapturePartialCostOnError pins the same discipline on the two-tier
// path: local-tier cost accumulates even when the encode write fails.
func TestCapturePartialCostOnError(t *testing.T) {
	local, _ := diffFixture(t)
	remote, _ := diffFixture(t)
	c := NewCheckpointer(local, remote, 1)
	inj := faults.New(7, faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", After: 1, Count: 1, Keep: 256})
	local.SetFaultHook(inj)
	err := c.Capture(diffMeta(0), [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)})
	local.SetFaultHook(nil)
	if err == nil {
		t.Fatal("torn local write did not surface")
	}
	lc, _ := c.Costs()
	if lc.Bytes <= 256 {
		t.Fatalf("local cost %d bytes on error, want header + 256-byte torn prefix", lc.Bytes)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushPartialCostOnError: remote-tier cost accumulates when the
// background flush dies mid-write.
func TestFlushPartialCostOnError(t *testing.T) {
	local, _ := diffFixture(t)
	remote, _ := diffFixture(t)
	c := NewCheckpointer(local, remote, 1)
	inj := faults.New(8, faults.Rule{Kind: faults.TornWrite, Name: ".ckpt", Count: 1, Keep: 128})
	remote.SetFaultHook(inj)
	if err := c.Capture(diffMeta(0), [][]byte{synth.FieldF32(16384, 1), synth.FieldF32(16384, 2)}); err != nil {
		t.Fatal(err)
	}
	ferr := c.Flush()
	remote.SetFaultHook(nil)
	if ferr == nil {
		t.Fatal("torn remote flush did not surface")
	}
	_, rc := c.Costs()
	if rc.Bytes != 128 {
		t.Fatalf("remote cost %d bytes on error, want the 128-byte torn prefix", rc.Bytes)
	}
	if err := c.Close(); err == nil {
		t.Log("close after flush error returned nil (flush error already consumed)")
	}
}
