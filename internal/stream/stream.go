// Package stream implements the multi-level overlapping I/O pipeline of
// the comparator's verification stage (paper §2.1, Fig. 3): an I/O
// producer reads slices of scattered chunk pairs from the PFS into host
// buffers through an aio backend while the consumer transfers the previous
// slice to the device and runs the comparison kernel. Buffering is
// configurable depth-N (Config.Depth, default 2 — classic double
// buffering), so steady-state cost is bounded by the slower of the I/O and
// compute rates rather than their sum.
//
// Slice buffers come from a free list sized to the pipeline depth: each
// buffer set (host buffers for both runs plus the two request batches) is
// recycled as its slice completes, and the host buffers themselves come
// from the process-wide bufpool recycler and go back to it when Run
// returns, so a stream of comparisons reuses the same memory instead of
// allocating and zeroing fresh buffers per run. Each slice's chunks sit
// back to back in its host buffers, so a coalescing backend reads
// adjacent candidate chunks straight into them. When the backend
// implements aio.PairReader, both runs' requests for a slice are
// submitted as one overlapped batch; otherwise the two reads serialize.
//
// The pipeline runs with real goroutine overlap (wall time) and accounts
// virtual time with the depth-N recurrence (VirtualPipeline):
//
//	ioStart_i   = max(ioEnd_{i-1}, compEnd_{i-depth})
//	compStart_i = max(compEnd_{i-1}, ioEnd_i)
//
// which at depth 2 reduces to the classic double-buffer closed form
//
//	total = io_0 + Σ_{i≥1} max(io_i, comp_{i-1}) + comp_last
//
// and at depth 1 to the fully serial sum Σ (io_i + comp_i).
package stream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/aio"
	"repro/internal/bufpool"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/retry"
)

// ChunkPair is one unit of verification work: the same logical chunk in
// the two runs' checkpoint files.
type ChunkPair struct {
	// Index is the caller-defined chunk identifier.
	Index int
	// OffA and OffB are absolute file offsets in run A's and run B's files.
	OffA, OffB int64
	// Len is the chunk length in bytes.
	Len int
}

// Config parameterizes the pipeline.
type Config struct {
	// Backend performs the scattered reads. The compare layer always
	// injects one (the service plane's ring, or compare's own fallback);
	// direct calls that leave it nil get a package-private persistent
	// ring of the same shape.
	Backend aio.Backend
	// Device prices host-to-device transfers.
	Device device.Model
	// SliceBytes is the target bytes per pipeline slice per run
	// (default 8 MiB).
	SliceBytes int
	// Depth is the pipeline depth: how many slice buffer sets may be in
	// flight at once (default 2, classic double buffering; 1 serializes
	// I/O against compute). The producer blocks acquiring a buffer set
	// from the free list, so the wall-clock pipeline and the virtual-time
	// recurrence share the same bound.
	Depth int
	// Retry governs re-issue of a slice's batch reads on Transient
	// errors. Backoff is charged to the slice's I/O virtual time; an
	// exhausted budget surfaces the error wrapped Permanent. The zero
	// policy disables retries.
	Retry retry.Policy
}

// Stats reports the pipeline's resource consumption. On error the
// cumulative fields (Slices, BytesRead, ReadCost, IOVirtual,
// ComputeVirtual, PipelineVirtual) cover only the slices consumed before
// the failure — partial but truthful; Wall always covers the whole call.
type Stats struct {
	// Slices is the number of pipeline slices consumed.
	Slices int
	// BytesRead counts bytes read from both files.
	BytesRead int64
	// ReadCost aggregates the storage cost of all reads.
	ReadCost pfs.Cost
	// IOVirtual is the summed un-overlapped I/O virtual time.
	IOVirtual time.Duration
	// ComputeVirtual is the summed transfer + kernel virtual time.
	ComputeVirtual time.Duration
	// PipelineVirtual is the overlapped end-to-end virtual time.
	PipelineVirtual time.Duration
	// Wall is the measured wall-clock time of the pipeline, set on both
	// success and error returns.
	Wall time.Duration
	// ReadRetries counts batch reads re-issued under Config.Retry.
	ReadRetries int
	// RingFallbacks counts slices that fell back to a fresh-ring
	// aio.Legacy read after the shared ring reported ErrRingClosed.
	RingFallbacks int
}

// Compute is the consumer callback: it receives one chunk pair with both
// buffers filled and returns the virtual duration of its kernel work.
type Compute func(p ChunkPair, a, b []byte) (time.Duration, error)

// slice is one pipeline buffer set. Buffers and request batches are
// recycled through the free list: reset keeps capacity, so after the pool
// warms up a fill performs no heap allocation.
type slice struct {
	pairs    []ChunkPair
	bufA     []byte
	bufB     []byte
	rd       BatchRead
	err      error
	reqsA    []aio.ReadReq
	reqsB    []aio.ReadReq
	reqsAB   []aio.ReadReq // merged batch for the same-file (shared pack) path
	byteSize int64
}

// reset clears the slice for reuse, keeping every backing array.
func (s *slice) reset() {
	s.pairs = s.pairs[:0]
	s.reqsA = s.reqsA[:0]
	s.reqsB = s.reqsB[:0]
	s.reqsAB = s.reqsAB[:0]
	s.byteSize = 0
	s.rd = BatchRead{}
	s.err = nil
}

// Run streams all chunk pairs through the pipeline. Cancellation is
// observed at three points: the producer aborts between slices (and its
// backend reads observe the context themselves), the consumer aborts
// between slices, and a canceled run drains the producer before
// returning, so no goroutine or pooled buffer leaks.
func Run(ctx context.Context, fA, fB *pfs.File, pairs []ChunkPair, cfg Config, compute Compute) (stats Stats, err error) {
	if len(pairs) == 0 {
		return stats, nil
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	if cfg.Backend == nil {
		cfg.Backend = fallbackBackend()
	}
	if cfg.SliceBytes <= 0 {
		cfg.SliceBytes = 8 << 20
	}
	if cfg.Depth < 1 {
		cfg.Depth = 2
	}
	for _, p := range pairs {
		if p.Len <= 0 {
			return stats, fmt.Errorf("stream: chunk %d has non-positive length", p.Index)
		}
	}
	sw := metrics.NewStopwatch()
	defer func() { stats.Wall = sw.Lap() }()

	// Free list of slice buffer sets, sized to the pipeline depth: the
	// producer cannot run more than Depth slices ahead of the consumer.
	pool := make(chan *slice, cfg.Depth)
	sets := make([]slice, cfg.Depth)
	for i := range sets {
		pool <- &sets[i]
	}

	// Producer: partitions pairs into ~SliceBytes slices lazily, filling
	// each into a pooled buffer set.
	filled := make(chan *slice, cfg.Depth)
	done := make(chan struct{})
	go func() {
		defer close(filled)
		next := 0
		for next < len(pairs) {
			var s *slice
			select {
			case s = <-pool:
			case <-done:
				return
			case <-ctx.Done():
				return
			}
			s.reset()
			for next < len(pairs) {
				p := pairs[next]
				s.pairs = append(s.pairs, p)
				s.byteSize += int64(p.Len)
				next++
				if s.byteSize >= int64(cfg.SliceBytes) {
					break
				}
			}
			s.fill(ctx, fA, fB, cfg)
			select {
			case filled <- s:
			case <-done:
				return
			}
		}
	}()
	defer func() {
		close(done)
		for range filled { // drain so the producer can exit
		}
		// The producer has exited and the consumer is done: no slice
		// buffer is referenced any more.
		for i := range sets {
			bufpool.Put(sets[i].bufA)
			bufpool.Put(sets[i].bufB)
		}
	}()

	// Consumer: runs the compute stage and advances the virtual clock by
	// the depth-N recurrence.
	vp := NewVirtualPipeline(cfg.Depth)
	for s := range filled {
		if cerr := ctx.Err(); cerr != nil {
			return stats, cerr
		}
		if s.err != nil {
			return stats, s.err
		}
		stats.Slices++
		stats.ReadCost.Add(s.rd.Cost)
		stats.BytesRead += 2 * s.byteSize
		stats.IOVirtual += s.rd.IO
		stats.ReadRetries += s.rd.Retries
		if s.rd.FellBack {
			stats.RingFallbacks++
		}

		// One batched kernel per slice: launch charged here, the
		// callbacks contribute only their bandwidth terms.
		comp := cfg.Device.KernelLaunch + cfg.Device.TransferTime(2*s.byteSize)
		var posA, posB int64
		for _, p := range s.pairs {
			a := s.bufA[posA : posA+int64(p.Len)]
			b := s.bufB[posB : posB+int64(p.Len)]
			posA += int64(p.Len)
			posB += int64(p.Len)
			kv, err := compute(p, a, b)
			if err != nil {
				return stats, err
			}
			comp += kv
		}
		stats.ComputeVirtual += comp
		vp.Advance(s.rd.IO, comp)
		stats.PipelineVirtual = vp.Total()
		pool <- s // recycle the buffer set
	}
	return stats, ctx.Err()
}

// fill reads the slice's chunks from both files through the backend,
// reusing the slice's buffers and request batches, via ReadBatch: retried
// on Transient errors, with a closed shared ring degrading to a one-off
// fresh-ring read of the same requests.
func (s *slice) fill(ctx context.Context, fA, fB *pfs.File, cfg Config) {
	n := s.byteSize
	s.bufA = bufpool.Grow(s.bufA, int(n))
	s.bufB = bufpool.Grow(s.bufB, int(n))
	var pos int64
	for _, p := range s.pairs {
		s.reqsA = append(s.reqsA, aio.ReadReq{Off: p.OffA, Len: p.Len, Buf: s.bufA[pos : pos+int64(p.Len)], Tag: p.Index})
		s.reqsB = append(s.reqsB, aio.ReadReq{Off: p.OffB, Len: p.Len, Buf: s.bufB[pos : pos+int64(p.Len)], Tag: p.Index})
		pos += int64(p.Len)
	}
	sameFile := fA == fB
	if sameFile {
		// Both sides live in the same file (differential comparisons read
		// every chunk from the shared CAS pack): merge the two batches into
		// one so a coalescing backend can bridge gaps ACROSS sides — A and
		// B representatives captured in the same iteration sit adjacent in
		// the pack — and the whole slice costs a single batched submission.
		s.reqsAB = append(append(s.reqsAB, s.reqsA...), s.reqsB...)
	}
	s.rd, s.err = ReadBatch(ctx, cfg.Retry, cfg.Backend, func(b aio.Backend) (pfs.Cost, time.Duration, error) {
		if sameFile {
			cost, t, err := b.ReadBatch(ctx, fA, s.reqsAB)
			if err != nil {
				return cost, t, fmt.Errorf("stream: read shared pack: %w", err)
			}
			return cost, t, nil
		}
		if pair, ok := b.(aio.PairReader); ok {
			cost, t, err := pair.ReadBatchPair(ctx, fA, fB, s.reqsA, s.reqsB)
			if err != nil {
				return cost, t, fmt.Errorf("stream: read runs A+B: %w", err)
			}
			return cost, t, nil
		}
		// No overlapped pair path (the fresh-ring fallback among them):
		// the run-A and run-B batches serialize.
		costA, tA, err := b.ReadBatch(ctx, fA, s.reqsA)
		if err != nil {
			return costA, tA, fmt.Errorf("stream: read run A: %w", err)
		}
		costB, tB, err := b.ReadBatch(ctx, fB, s.reqsB)
		if err != nil {
			return costB, tB, fmt.Errorf("stream: read run B: %w", err)
		}
		costA.Add(costB)
		return costA, tA + tB, nil
	})
}

// BatchRead is the outcome of one ReadBatch call.
type BatchRead struct {
	// Cost is the storage cost of the read that succeeded.
	Cost pfs.Cost
	// IO is the read's virtual time, including retry backoff and a
	// fallback read.
	IO time.Duration
	// Retries counts reads re-issued under the retry policy.
	Retries int
	// FellBack reports that the fresh-ring fallback served the read.
	FellBack bool
}

// ReadBatch issues read against backend b under retry policy p, charging
// the backoff to the returned I/O time. When the shared ring reports
// closed, it issues read once more against a fresh aio.Legacy ring — the
// first rung of the degradation ladder — instead of failing the
// comparison. read issues one scattered batch (or batch pair) against the
// backend it is given. The pipeline's slices and the group union reads
// both go through here.
func ReadBatch(ctx context.Context, p retry.Policy, b aio.Backend, read func(aio.Backend) (pfs.Cost, time.Duration, error)) (BatchRead, error) {
	var r BatchRead
	attempts := 0
	backoff, err := p.Do(ctx, func(attempt int) error {
		attempts = attempt + 1
		var rerr error
		r.Cost, r.IO, rerr = read(b)
		return rerr
	})
	r.Retries = attempts - 1
	r.IO += backoff
	if err != nil && errors.Is(err, aio.ErrRingClosed) {
		var io time.Duration
		r.Cost, io, err = read(aio.Legacy{})
		r.IO += io
		r.FellBack = err == nil
	}
	return r, err
}

// VirtualPipeline accumulates the virtual-clock completion time of a
// depth-N two-stage (I/O → compute) pipeline. Slice i's read can start
// only when the previous read finished (one I/O channel) AND a buffer set
// is free, i.e. slice i-depth's compute finished; its compute starts when
// the previous compute finished (one device) and its own read is done:
//
//	ioStart_i   = max(ioEnd_{i-1}, compEnd_{i-depth})
//	compStart_i = max(compEnd_{i-1}, ioEnd_i)
//
// Exported so tests can check the recurrence against its closed forms
// (serial sum at depth 1, the double-buffer formula at depth 2).
type VirtualPipeline struct {
	ioEnd   time.Duration
	compEnd time.Duration
	ends    []time.Duration // compEnd of the last `depth` slices, ring-indexed
	n       int
}

// NewVirtualPipeline returns an accumulator for the given depth
// (values < 1 are treated as 1).
func NewVirtualPipeline(depth int) *VirtualPipeline {
	if depth < 1 {
		depth = 1
	}
	return &VirtualPipeline{ends: make([]time.Duration, depth)}
}

// Advance feeds the next slice's I/O and compute virtual durations.
func (v *VirtualPipeline) Advance(io, comp time.Duration) {
	depth := len(v.ends)
	ioStart := v.ioEnd
	if v.n >= depth {
		// The buffer set is recycled from slice n-depth; wait for its
		// compute to release it.
		if free := v.ends[v.n%depth]; free > ioStart {
			ioStart = free
		}
	}
	v.ioEnd = ioStart + io
	compStart := v.compEnd
	if v.ioEnd > compStart {
		compStart = v.ioEnd
	}
	v.compEnd = compStart + comp
	v.ends[v.n%depth] = v.compEnd
	v.n++
}

// Total returns the pipeline completion time of the slices fed so far.
func (v *VirtualPipeline) Total() time.Duration { return v.compEnd }
