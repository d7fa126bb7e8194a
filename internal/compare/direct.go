package compare

import (
	"context"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/stream"
)

// hostCompareModel prices the AllClose baseline's vectorized host-side
// comparison: memory-bound numpy kernels, no device, no kernel launches.
func hostCompareModel() device.Model {
	return device.Model{
		Name:                "host",
		HashBytesPerSec:     2e9,
		CompareBytesPerSec:  4e9,
		TransferBytesPerSec: 20e9,
		NodeHashesPerSec:    1e7,
	}
}

// CompareDirect is the optimized element-wise baseline of §3.2.2: every
// byte of both checkpoints is streamed from the PFS through the async I/O
// pipeline and compared within ε on the device, reporting the indices of
// all divergent elements. Unlike the Merkle method it needs no metadata
// but must always read everything, regardless of the error bound. Its
// engine plan is the Merkle plan minus stage 1:
// open → plan-sweep → stream-verify → report.
func CompareDirect(ctx context.Context, store *pfs.Store, nameA, nameB string, opts Options) (*Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	f := newPairFront(store, nil, nameA, nameB, opts, "direct")
	return pairResult(f.run(ctx, "open-checkpoints", false, f.streamSteps("plan-sweep", f.stepPlanSweep)...))
}

// stepPlanSweep builds one whole-checkpoint stream of contiguous
// slice-sized chunk pairs spanning every selected field, so the sequential
// sweep pays the batch latency once.
func (f *Front) stepPlanSweep(ctx context.Context, x *engine.Exec) error {
	ra, rb := f.readers[0], f.readers[1]
	f.fields = make([]string, ra.NumFields())
	for i := range f.fields {
		f.fields[i] = ra.Field(i).Name
	}
	selected, err := f.opts.fieldFilter(f.fields)
	if err != nil {
		return err
	}
	for fi := 0; fi < ra.NumFields(); fi++ {
		fld := ra.Field(fi)
		if !selected(fld.Name) {
			continue
		}
		h, err := f.hasher(fld.DType)
		if err != nil {
			return err
		}
		eltSize := int64(fld.DType.Size())
		fb := fld.Bytes()
		sliceBytes := int64(f.opts.SliceBytes)
		baseA := ra.FieldFileOffset(fi)
		baseB := rb.FieldFileOffset(fi)
		for off := int64(0); off < fb; off += sliceBytes {
			n := min(sliceBytes, fb-off)
			f.refs = append(f.refs, chunkRef{field: fi, chunk: -1, baseElem: off / eltSize, hasher: h})
			f.chunks = append(f.chunks, stream.ChunkPair{Index: len(f.chunks), OffA: baseA + off, OffB: baseB + off, Len: int(n)})
		}
		f.totalElements += fld.Count
	}
	return nil
}

// CompareAllClose is the naive baseline of §3.2.1 (numpy.allclose with
// atol=ε, rtol=0): both checkpoints are read in full with plain blocking
// sequential I/O (no async overlap) and compared element-wise on the host.
// It answers only whether ANY element exceeds the bound — it cannot say
// where — which is why Result.Diffs stays empty. Its plan is
// open → read-compare → report, with the context checked between fields.
func CompareAllClose(ctx context.Context, store *pfs.Store, nameA, nameB string, opts Options) (bool, *Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return false, nil, err
	}
	f := newPairFront(store, nil, nameA, nameB, opts, "allclose")
	allWithin := true
	var p engine.Plan
	p.Retry = opts.Retry
	open := p.Add(engine.StepSetup, "open-checkpoints", f.stepOpen)
	p.Add(engine.StepReadFull, "read-compare", func(ctx context.Context, x *engine.Exec) error {
		ok, err := f.allCloseFields(ctx, x)
		allWithin = ok
		return err
	}, open)
	erep, err := engine.Execute(ctx, &p)
	f.rep.Steps = erep.Steps
	res, err := pairResult(f.rep, err)
	if err != nil {
		return false, nil, err
	}
	return allWithin, res, nil
}

// allCloseFields runs the blocking per-field read + host compare loop of
// the AllClose baseline.
func (f *Front) allCloseFields(ctx context.Context, x *engine.Exec) (bool, error) {
	sw := metrics.NewStopwatch()
	ra, rb := f.readers[0], f.readers[1]
	res := f.rep.Pairs[0].Result
	model := f.store.Model()
	sharers := f.store.Sharers()
	hostModel := hostCompareModel()

	names := make([]string, ra.NumFields())
	for i := range names {
		names[i] = ra.Field(i).Name
	}
	selected, err := f.opts.fieldFilter(names)
	if err != nil {
		return false, err
	}

	allWithin := true
	for fi := 0; fi < ra.NumFields(); fi++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		fld := ra.Field(fi)
		if !selected(fld.Name) {
			continue
		}
		hasher, err := f.hasher(fld.DType)
		if err != nil {
			return false, err
		}
		// Blocking sequential reads of both fields, no overlap: the read
		// cost of A and B stack (numpy reads an array at a time).
		da, costA, err := ra.ReadField(fi)
		if err != nil {
			return false, err
		}
		db, costB, err := rb.ReadField(fi)
		if err != nil {
			return false, err
		}
		var cost pfs.Cost
		cost.Add(costA)
		cost.Add(costB)
		f.rep.BytesRead += cost.TotalBytes()
		readV := model.SerialReadTime(cost, sharers)
		f.rep.Breakdown.AddVirtual(metrics.PhaseRead, readV)
		f.rep.Breakdown.AddWall(metrics.PhaseRead, sw.Lap())

		// Vectorized full-array comparison on the host (numpy computes
		// the whole boolean array; there is no early exit).
		var ok bool
		if f.opts.RelEpsilon > 0 {
			ok, err = errbound.AllCloseRel(da, db, fld.DType, f.opts.Epsilon, f.opts.RelEpsilon)
		} else {
			ok, err = hasher.AllClose(da, db)
		}
		if err != nil {
			return false, err
		}
		if !ok {
			allWithin = false
		}
		res.TotalElements += fld.Count
		compV := hostModel.CompareTime(fld.Bytes())
		f.rep.Breakdown.AddVirtual(metrics.PhaseCompareDirect, compV)
		f.rep.Breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
		x.AddVirtual(readV + compV)
	}
	if !allWithin {
		res.DiffCount = -1 // unknown count: allclose only answers the boolean
	}
	return allWithin, nil
}
