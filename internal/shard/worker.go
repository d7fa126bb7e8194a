package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/bufpool"
	"repro/internal/errbound"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// gauge tracks one worker's in-flight stage-2 buffer bytes and their
// high-water mark. It is atomic so the budget invariant can be asserted
// from outside the worker goroutine under the race detector.
type gauge struct {
	inflight atomic.Int64
	peak     atomic.Int64
}

func (g *gauge) acquire(n int64) {
	v := g.inflight.Add(n)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (g *gauge) release(n int64) { g.inflight.Add(-n) }

// Peak returns the high-water mark of in-flight bytes.
func (g *gauge) Peak() int64 { return g.peak.Load() }

// InFlight returns the current in-flight bytes.
func (g *gauge) InFlight() int64 { return g.inflight.Load() }

// workerState is one worker's run-local state: batch buffers reused
// across its units (from bufpool, returned when the worker exits), cached
// hashers, accumulated virtual clock and accounting.
type workerState struct {
	r  *run
	id int

	hashers    map[errbound.DType]*errbound.Hasher
	bufA, bufB []byte

	units       int
	ioVirtual   time.Duration
	compVirtual time.Duration
	bytesRead   int64
	gauge       gauge
	died        bool
}

func (ws *workerState) init(r *run, id int) {
	ws.r = r
	ws.id = id
	ws.hashers = make(map[errbound.DType]*errbound.Hasher)
}

// releaseBuffers hands the worker's batch buffers back to the recycler
// once it has executed its last unit.
func (ws *workerState) releaseBuffers() {
	bufpool.Put(ws.bufA)
	bufpool.Put(ws.bufB)
	ws.bufA, ws.bufB = nil, nil
}

// workerLoop is one worker goroutine: drain the own deque head-first,
// steal batches from the most-loaded peer's tail when idle (if stealing
// is on), execute each unit under the buffer budget, and stream verdicts
// to the coordinator. Unit take-and-execute turns are serialized by the
// run's virtual-time gate, so the schedule is a deterministic function
// of the model costs. The closing done frame is sent on every exit path
// — success, cancellation, error, or chaos death — so the coordinator's
// receiver always terminates.
func (r *run) workerLoop(ctx context.Context, w int, rank *mpi.Rank) (err error) {
	ws := &r.workers[w]
	defer ws.releaseBuffers()
	defer func() {
		died := uint8(0)
		if ws.died {
			died = 1
		}
		done := &DoneMsg{
			Worker:       int64(w),
			Units:        int64(ws.units),
			Died:         died,
			IONanos:      int64(ws.ioVirtual),
			CompNanos:    int64(ws.compVirtual),
			BytesRead:    ws.bytesRead,
			PeakInFlight: ws.gauge.Peak(),
		}
		done.Steals, done.StolenUnits = r.dq.StealStatsOf(w)
		if serr := rank.Send(0, shardTag, EncodeDone(done)); serr != nil && err == nil {
			err = serr
		}
	}()
	defer r.gate.exit(w)
	for {
		if gerr := r.gate.enter(ctx, w); gerr != nil {
			return gerr
		}
		seq, ok := r.dq.Pop(w)
		if !ok && r.cfg.Stealing {
			seq, ok = r.dq.Steal(w)
		}
		if !ok {
			return nil
		}
		if r.cfg.Chaos.Enabled && w == r.cfg.Chaos.Worker && ws.units >= r.cfg.Chaos.AfterUnits {
			// Chaos death: the in-flight unit goes back on the deque —
			// stealable by peers, drained by the coordinator as a last
			// resort — and the worker exits without a verdict for it, so
			// the unit's eventual verdict is recorded exactly once.
			r.dq.Push(w, seq)
			ws.died = true
			return nil
		}
		io0, comp0 := ws.ioVirtual, ws.compVirtual
		v, uerr := r.executeUnit(ctx, ws, r.units[seq])
		r.gate.leave(w, (ws.ioVirtual-io0)+(ws.compVirtual-comp0))
		if uerr != nil {
			return uerr
		}
		if serr := rank.Send(0, shardTag, EncodeVerdict(v)); serr != nil {
			return serr
		}
	}
}

// executeUnit runs stage 2 for one work unit: stream its candidate
// chunks in budget-bounded batches, verify element-wise within ε, and
// summarize into a verdict. All pricing is virtual-clock model time —
// reads at the unit's home-target contention factor, compute on the
// device model — never wall time.
func (r *run) executeUnit(ctx context.Context, ws *workerState, u *UnitMsg) (*VerdictMsg, error) {
	dtype := errbound.DType(u.DType)
	hasher := ws.hashers[dtype]
	if hasher == nil {
		h, err := errbound.NewHasher(dtype, r.opts.Epsilon)
		if err != nil {
			return nil, err
		}
		ws.hashers[dtype] = h
		hasher = h
	}
	v := &VerdictMsg{Seq: u.Seq, Pair: u.Pair, Field: u.Field, Worker: int64(ws.id)}
	i := 0
	for i < len(u.Chunks) {
		// Batch greedily under the budget: both sides of every chunk in
		// the batch are in flight at once, so the batch closes when one
		// more chunk would push 2×bytes past Budget. Budget ≥ 2×chunk
		// (validated) guarantees progress.
		j, batchBytes := i, int64(0)
		for j < len(u.Chunks) {
			l := u.Chunks[j].Len
			if j > i && 2*(batchBytes+l) > r.cfg.Budget {
				break
			}
			batchBytes += l
			j++
		}
		if err := r.runBatch(ctx, ws, hasher, u, i, j, batchBytes, v); err != nil {
			return nil, err
		}
		i = j
	}
	ws.units++
	return v, nil
}

// runBatch reads and verifies chunks [i, j) of the unit as one in-flight
// batch. Under Options.Degrade, unreadable or integrity-failing chunks
// are excluded from diffing and counted unverified instead of failing
// the worker; without it any read error (after retries) aborts.
func (r *run) runBatch(ctx context.Context, ws *workerState, hasher *errbound.Hasher, u *UnitMsg, i, j int, batchBytes int64, v *VerdictMsg) error {
	pf := r.files[u.Pair]
	model := r.store.Model()
	sharers := r.store.TargetSharers(int(u.Target))

	need := 2 * batchBytes
	ws.gauge.acquire(need)
	defer ws.gauge.release(need)
	ws.bufA = bufpool.Grow(ws.bufA, int(batchBytes))
	ws.bufB = bufpool.Grow(ws.bufB, int(batchBytes))

	var cost pfs.Cost
	var backoff time.Duration
	var comp time.Duration
	off := int64(0)
	for k := i; k < j; k++ {
		cr := &u.Chunks[k]
		a := ws.bufA[off : off+cr.Len]
		b := ws.bufB[off : off+cr.Len]
		off += cr.Len

		okA, errA := r.readChunk(ctx, pf.fA, a, cr.OffA, &cost, &backoff, v)
		if errA != nil {
			return errA
		}
		okB, errB := r.readChunk(ctx, pf.fB, b, cr.OffB, &cost, &backoff, v)
		if errB != nil {
			return errB
		}
		if !okA || !okB {
			v.Unverified++
			continue
		}
		if r.opts.Degrade {
			// Integrity rung: streamed bytes must re-hash to the leaves
			// the unit was cut from; a failing side gets one re-read.
			va := r.integrityCheck(hasher, pf.fA, a, cr.OffA, cr.DigestA, &cost, v)
			vb := r.integrityCheck(hasher, pf.fB, b, cr.OffB, cr.DigestB, &cost, v)
			if va == nil || vb == nil {
				// Untrusted bytes must produce neither a false divergence
				// nor a false match; the chunk still costs compare time.
				v.Unverified++
				comp += r.opts.Device.CompareRateTime(cr.Len)
				continue
			}
			a, b = va, vb
		}
		idx, _, err := hasher.CompareSlices(nil, a, b)
		if err != nil {
			return fmt.Errorf("shard: unit %d chunk %d: %w", u.Seq, cr.Index, err)
		}
		if len(idx) > 0 {
			v.Changed++
			base := cr.Index * u.ChunkElems
			for _, e := range idx {
				v.Diffs = append(v.Diffs, base+e)
			}
		}
	}

	io := model.LatencyTerm(cost) + model.ScatteredBandwidthTerm(cost, sharers) + backoff
	comp += r.opts.Device.KernelLaunch +
		r.opts.Device.TransferTime(2*batchBytes) +
		r.opts.Device.CompareRateTime(batchBytes)
	v.Ops += int64(cost.Ops)
	v.CachedOps += int64(cost.CachedOps)
	v.Bytes += cost.Bytes
	v.CachedBytes += cost.CachedBytes
	v.BytesRead += cost.TotalBytes()
	v.IONanos += int64(io)
	v.CompNanos += int64(comp)
	ws.ioVirtual += io
	ws.compVirtual += comp
	ws.bytesRead += cost.TotalBytes()
	return nil
}

// readChunk reads one chunk side under the options' retry policy. It
// returns ok=false (and no error) when the read ultimately failed but
// degradation allows the comparison to continue without the chunk.
func (r *run) readChunk(ctx context.Context, f *pfs.File, p []byte, fileOff int64, cost *pfs.Cost, backoff *time.Duration, v *VerdictMsg) (bool, error) {
	attempts := 0
	bo, err := r.opts.Retry.Do(ctx, func(attempt int) error {
		if attempt > 0 {
			attempts++
		}
		n, c, rerr := f.ReadAtCtx(ctx, p, fileOff)
		cost.Add(c)
		if rerr == nil && n != len(p) {
			rerr = fmt.Errorf("shard: short read %d of %d at %d", n, len(p), fileOff)
		}
		return rerr
	})
	*backoff += bo
	v.Retries += int64(attempts)
	if err == nil {
		return true, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return false, cerr
	}
	if r.opts.Degrade {
		return false, nil
	}
	return false, err
}

// integrityCheck verifies one side's bytes against the unit's leaf
// digest, re-reading once on mismatch (an in-flight flip re-reads
// clean; media corruption repeats). It returns the verified bytes or
// nil when the chunk remains unverifiable.
func (r *run) integrityCheck(hasher *errbound.Hasher, f *pfs.File, data []byte, fileOff int64, want [16]byte, cost *pfs.Cost, v *VerdictMsg) []byte {
	if got, err := hasher.HashChunk(data); err == nil && got == want {
		return data
	}
	buf := make([]byte, len(data))
	n, c, err := f.ReadAt(buf, fileOff)
	cost.Add(c)
	v.Rereads++
	if err != nil || n != len(buf) {
		return nil
	}
	if got, herr := hasher.HashChunk(buf); herr == nil && got == want {
		return buf
	}
	return nil
}
