package compare

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/stream"
)

// CompareMerkle runs the paper's two-stage comparison of one checkpoint
// pair using previously saved metadata:
//
//	stage 1: load both metadata files and diff the trees (pruned BFS),
//	         producing the candidate chunk list;
//	stage 2: stream only the candidate chunks from both checkpoint files
//	         and verify them element-wise within ε.
//
// Both checkpoints (and their metadata) live on the given store under
// their canonical names. The comparison is an engine plan
// (open → load-metadata → tree-diff → coalesce → stream-verify → report):
// cancellation is observed before every step and inside the diff kernels
// and the streaming pipeline, and the cleanup chain closes both readers on
// every exit path.
func CompareMerkle(ctx context.Context, store *pfs.Store, nameA, nameB string, opts Options) (*Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	f := newPairFront(store, nil, nameA, nameB, opts, "merkle")
	return pairResult(f.run(ctx, "open-checkpoints", true, f.streamSteps("assemble-batches", f.stepAssemble)...))
}

// chunkRef maps one streamed chunk pair back to its field and element
// base. chunk is the Merkle chunk index, or -1 for the direct sweep
// (which has no chunk notion).
type chunkRef struct {
	field    int
	chunk    int
	baseElem int64
	hasher   *errbound.Hasher
}

// streamSteps are the stream-pipeline executor's steps: plan builds the
// chunk-pair list, then the overlapped read+compare pipeline verifies it.
func (f *Front) streamSteps(planLabel string, plan engine.StepFunc) []planStep {
	return []planStep{
		{engine.StepCoalesce, planLabel, plan},
		{engine.StepStreamVerify, "stream-verify", f.stepStreamVerify},
	}
}

// stepAssemble turns the pair's candidate chunks of every field into one
// batched stage-2 read plan, so scattered reads amortize the queue latency
// once instead of once per field (byte-level coalescing then happens in
// the aio backend).
func (f *Front) stepAssemble(ctx context.Context, x *engine.Exec) error {
	for fi, chunks := range f.accs[0].cands {
		if len(chunks) == 0 {
			continue
		}
		fm := f.metas[0].Fields[fi]
		h, err := f.hasher(fm.DType)
		if err != nil {
			return err
		}
		chunkElems := int64(fm.Tree.ChunkSize()) / int64(fm.DType.Size())
		for _, ci := range chunks {
			offA, n := f.extent(0, fi, ci)
			offB, _ := f.extent(1, fi, ci)
			f.refs = append(f.refs, chunkRef{field: fi, chunk: ci, baseElem: int64(ci) * chunkElems, hasher: h})
			f.chunks = append(f.chunks, stream.ChunkPair{Index: len(f.chunks), OffA: offA, OffB: offB, Len: n})
		}
	}
	return nil
}

// stepStreamVerify runs stage 2 through the overlapped read+compare
// pipeline. With Options.Degrade set, a Merkle-path pair whose stream
// fails (after retries and the ring fallback) degrades to a metadata-only
// verdict: diffs already proven stay, the remaining chunks are counted
// Unverified, and the result is marked Degraded rather than failing the
// plan.
func (f *Front) stepStreamVerify(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	acc := f.accs[0]
	stats, err := stream.Run(ctx, f.file(0), f.file(1), f.chunks, stream.Config{
		Backend:    f.opts.Backend,
		Device:     f.opts.Device,
		SliceBytes: f.opts.SliceBytes,
		Depth:      f.opts.Depth,
		Retry:      f.opts.Retry,
	}, f.verifyChunk)
	f.rep.RingFallbacks += stats.RingFallbacks
	f.Charge(x, sw.Lap(), stats.PipelineVirtual, stats.BytesRead, stats.ReadRetries)
	if err != nil {
		// Degradation applies only to the Merkle path: stage 1 already
		// bounded what the missing chunks could hide. The direct sweep
		// has no such net, and compute or cancellation errors are never
		// degraded away.
		if f.metas == nil {
			return fmt.Errorf("compare: direct: %w", err)
		}
		if !f.opts.Degrade || f.computeErr || ctx.Err() != nil {
			return fmt.Errorf("compare: verification: %w", err)
		}
		if missing := len(f.chunks) - acc.verified - acc.unverified; missing > 0 {
			acc.unverified += missing
		}
	}
	return nil
}

// verifyChunk is the stream pipeline's consumer callback: element-wise ε
// comparison of one chunk pair, recording divergent indices into the
// pair's accumulator.
func (f *Front) verifyChunk(p stream.ChunkPair, a, b []byte) (time.Duration, error) {
	ref := f.refs[p.Index]
	acc := f.accs[0]
	if f.opts.Degrade && ref.chunk >= 0 {
		okA := f.verifyLeaf(0, ref.field, ref.chunk, ref.hasher, a)
		okB := f.verifyLeaf(1, ref.field, ref.chunk, ref.hasher, b)
		if !okA || !okB {
			// Untrusted bytes must produce neither a false divergence nor
			// a false match; the chunk still costs compare time.
			acc.unverified++
			return f.opts.Device.CompareRateTime(int64(len(a))), nil
		}
	}
	idx, _, err := ref.hasher.CompareSlices(nil, a, b)
	if err != nil {
		f.computeErr = true
		return 0, err
	}
	f.memoize(0, ref.field, ref.chunk, idx)
	acc.verified++
	acc.add(ref.field, ref.chunk, ref.baseElem, idx)
	return f.opts.Device.CompareRateTime(int64(len(a))), nil
}

// BuildAndSave builds metadata for a checkpoint already on the store and
// saves it alongside (the offline-tool flow of cmd/reprocmp).
func BuildAndSave(ctx context.Context, store *pfs.Store, name string, opts Options) (*Metadata, BuildStats, error) {
	r, _, err := ckpt.OpenReader(store, name)
	if err != nil {
		return nil, BuildStats{}, err
	}
	defer r.Close()
	m, stats, _, err := BuildFromReader(ctx, r, opts)
	if err != nil {
		return nil, stats, err
	}
	if _, err := SaveMetadata(store, name, m); err != nil {
		return nil, stats, err
	}
	return m, stats, nil
}
