package compare

import (
	"context"
	"errors"
	"testing"

	"repro/internal/aio"
	"repro/internal/faults"
	"repro/internal/synth"
)

var errStorage = errors.New("injected storage fault")

// TestMerkleSurvivesNothingButReportsReadFaults injects a read fault at
// various depths of the comparison and checks the error surfaces cleanly
// (no hang, no partial result).
func TestMerkleReadFaultPropagates(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(55))
	// Fault during metadata read (first reads of the comparison).
	faults.FailReads(env.store, 0, errStorage)
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("metadata-read fault error = %v", err)
	}
	// Fault later, inside the verification pipeline's scattered reads
	// (ops 1-3 are the metadata reads; coalescing merges the candidate
	// chunks into a handful of runs, so op 6 lands mid-verification).
	env.store.EvictAll()
	faults.FailReads(env.store, 6, errStorage)
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("verification-read fault error = %v", err)
	}
	// Disarmed: succeeds again.
	faults.FailReads(env.store, 0, nil)
	env.store.EvictAll()
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); err != nil {
		t.Errorf("post-fault comparison failed: %v", err)
	}
}

func TestDirectReadFaultPropagates(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(56))
	faults.FailReads(env.store, 3, errStorage)
	if _, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("direct fault error = %v", err)
	}
}

func TestAllCloseReadFaultPropagates(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(57))
	faults.FailReads(env.store, 2, errStorage)
	if _, _, err := CompareAllClose(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("allclose fault error = %v", err)
	}
}

func TestMerkleFaultWithMmapBackend(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	opts.Backend = aio.Mmap{}
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(58))
	faults.FailReads(env.store, 10, errStorage)
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, errStorage) {
		t.Errorf("mmap fault error = %v", err)
	}
}

func TestBuildAndSaveWriteFault(t *testing.T) {
	opts := baseOpts(t, 1e-5, 4<<10)
	env := newEnv(t, 16<<10, opts, synth.DefaultPerturb(59))
	faults.FailWrites(env.store, 0, errStorage)
	if _, _, err := BuildAndSave(context.Background(), env.store, env.nameA, opts); !errors.Is(err, errStorage) {
		t.Errorf("metadata write fault error = %v", err)
	}
	// Disarmed retry succeeds (the failed write is replaced).
	if _, _, err := BuildAndSave(context.Background(), env.store, env.nameA, opts); err != nil {
		t.Errorf("retry after write fault failed: %v", err)
	}
}
