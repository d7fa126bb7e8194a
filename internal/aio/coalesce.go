package aio

import (
	"context"
	"sort"
	"time"

	"repro/internal/bufpool"
	"repro/internal/pfs"
)

// Coalescing wraps a Backend and merges nearby scattered reads into fewer,
// larger operations before submission — the standard optimization for the
// verification stage's I/O pattern: when divergent chunks cluster (as they
// do for spatially correlated divergence), adjacent candidate chunks can
// be fetched with one request, trading a bounded amount of wasted gap
// bytes for a large reduction in operation count. With latency-dominated
// scattered batches this is where most of the stage-2 speedup comes from,
// which is why the compare layer enables it by default.
//
// A merged run whose requests are gap-free in the file and back to back
// in one caller buffer (the layout the stream pipeline and the group
// executor build when adjacent chunks merge) is read in place: the
// merged request's buffer is the callers' own memory, with no
// intermediate buffer and no scatter copy. Runs that bridge a gap,
// overlap or land in scattered buffers read into a merged buffer taken
// from the process-wide bufpool recycler and are copied out from it; the
// small merge plan itself (index order, runs, merged requests) is
// recycled through a bufpool free list. Coalescing holds no state of its
// own, so a value built per job costs nothing to warm up, and the zero
// value works.
//
// Coalescing implements PairReader by planning each side independently and
// handing both merged batches to the inner backend's pair path (falling
// back to two serial inner reads when the inner backend lacks one).
type Coalescing struct {
	// Inner executes the merged batch (nil selects Default()).
	Inner Backend
	// MaxGap is the largest hole (in bytes) bridged between two requests
	// (default 16 KiB). Gap bytes are read and discarded.
	MaxGap int
}

var (
	_ Backend    = Coalescing{}
	_ PairReader = Coalescing{}
)

// NewCoalescing wraps a backend with defaults applied.
func NewCoalescing(inner Backend, maxGap int) Coalescing {
	if maxGap <= 0 {
		maxGap = 16 << 10
	}
	return Coalescing{Inner: inner, MaxGap: maxGap}
}

func (c Coalescing) inner() Backend {
	if c.Inner == nil {
		return Default()
	}
	return c.Inner
}

// Name implements Backend.
func (c Coalescing) Name() string { return c.inner().Name() + "+coalesce" }

// plans recycles merge plans through the same bounded free list as the
// recycler's buffer classes (a sync.Pool would not do: under the race
// detector it discards a quarter of what is put into it, and the plans
// must be reused there too for the zero-allocation steady state to hold).
var plans bufpool.FreeList[*coalesceScratch]

// acquire returns an empty merge plan to build one batch group in. Pair
// with release.
func acquire() *coalesceScratch {
	if sc, ok := plans.Get(); ok {
		return sc
	}
	return new(coalesceScratch)
}

// release hands the batch group's merged buffers back to the recycler,
// drops every reference to caller memory, and recycles the plan.
func release(sc *coalesceScratch) {
	for ri, r := range sc.runs {
		if !r.direct {
			bufpool.Put(sc.merged[ri].Buf)
		}
	}
	clear(sc.merged)
	sc.sorter.order = sc.sorter.order[:0]
	sc.runs = sc.runs[:0]
	sc.merged = sc.merged[:0]
	plans.Put(sc)
}

// ReadBatch merges, executes, and scatters results back into the original
// request buffers.
func (c Coalescing) ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	if len(reqs) <= 1 {
		return c.inner().ReadBatch(ctx, f, reqs)
	}
	sc := acquire()
	defer release(sc)
	p, err := sc.plan(reqs, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	cost, elapsed, err := c.inner().ReadBatch(ctx, f, sc.merged[p.lo:p.hi])
	if err != nil {
		return cost, elapsed, err
	}
	sc.scatter(p, reqs)
	return cost, elapsed, nil
}

// ReadBatchPair implements PairReader: each side is planned independently
// (runs never merge across files) and the two merged batches execute as
// one overlapped pair when the inner backend supports it.
func (c Coalescing) ReadBatchPair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	sc := acquire()
	defer release(sc)
	pa, err := sc.plan(reqsA, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	pb, err := sc.plan(reqsB, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	mergedA := sc.merged[pa.lo:pa.hi]
	mergedB := sc.merged[pb.lo:pb.hi]

	inner := c.inner()
	var cost pfs.Cost
	var elapsed time.Duration
	if pr, ok := inner.(PairReader); ok {
		cost, elapsed, err = pr.ReadBatchPair(ctx, fA, fB, mergedA, mergedB)
	} else {
		// No pair path underneath: the two merged batches serialize.
		cost, elapsed, err = inner.ReadBatch(ctx, fA, mergedA)
		if err == nil {
			var costB pfs.Cost
			var tB time.Duration
			costB, tB, err = inner.ReadBatch(ctx, fB, mergedB)
			cost.Add(costB)
			elapsed += tB
		}
	}
	if err != nil {
		return cost, elapsed, err
	}
	sc.scatter(pa, reqsA)
	sc.scatter(pb, reqsB)
	return cost, elapsed, nil
}

// crun is one merged run: the file window [off,end) covering the original
// requests at order[lo:hi] (offset-sorted, so members are consecutive).
// A direct run is read in place into its members' own buffers.
type crun struct {
	off, end int64
	lo, hi   int
	direct   bool
}

// coalescePlan addresses one planned batch inside the scratch: runs[lo:hi]
// and their merged requests merged[lo:hi] (the two lists grow in
// lockstep). Plans are index ranges rather than slices because a later
// plan in the same scratch may grow (and therefore move) the shared
// backing arrays.
type coalescePlan struct {
	lo, hi int
}

// coalesceScratch holds the planning state of one batch group: the
// offset-sorted index order, the merged runs and the merged request
// batch. It is recycled through plans; the merged buffers of gapped
// runs come from bufpool and go back there on release.
type coalesceScratch struct {
	sorter orderSorter
	runs   []crun
	merged []ReadReq
}

// orderSorter sorts request indices by offset. It is kept in the scratch
// (and passed to sort.Sort by pointer) so sorting allocates nothing.
type orderSorter struct {
	order []int
	reqs  []ReadReq
	base  int
}

func (s *orderSorter) Len() int { return len(s.order) - s.base }
func (s *orderSorter) Less(i, j int) bool {
	return s.reqs[s.order[s.base+i]].Off < s.reqs[s.order[s.base+j]].Off
}
func (s *orderSorter) Swap(i, j int) {
	o := s.order
	o[s.base+i], o[s.base+j] = o[s.base+j], o[s.base+i]
}

// plan validates reqs, sorts them by offset, and appends their merged runs
// and merged requests to the scratch.
func (sc *coalesceScratch) plan(reqs []ReadReq, maxGap int) (coalescePlan, error) {
	if maxGap <= 0 {
		maxGap = 16 << 10
	}
	p := coalescePlan{lo: len(sc.runs), hi: len(sc.runs)}
	if len(reqs) == 0 {
		return p, nil
	}
	for i := range reqs {
		if err := checkReq(&reqs[i]); err != nil {
			return p, err
		}
	}
	olo := len(sc.sorter.order)
	for i := range reqs {
		sc.sorter.order = append(sc.sorter.order, i)
	}
	sc.sorter.reqs = reqs
	sc.sorter.base = olo
	sort.Sort(&sc.sorter)
	sc.sorter.reqs = nil

	order := sc.sorter.order
	first := &reqs[order[olo]]
	cur := crun{off: first.Off, end: first.Off + int64(first.Len), lo: olo, hi: olo + 1, direct: true}
	for oi := olo + 1; oi < len(order); oi++ {
		prev, r := &reqs[order[oi-1]], &reqs[order[oi]]
		if r.Off <= cur.end+int64(maxGap) {
			if end := r.Off + int64(r.Len); end > cur.end {
				cur.end = end
			}
			cur.hi = oi + 1
			cur.direct = cur.direct && r.Off == prev.Off+int64(prev.Len) && adjacent(prev, r)
			continue
		}
		sc.runs = append(sc.runs, cur)
		cur = crun{off: r.Off, end: r.Off + int64(r.Len), lo: oi, hi: oi + 1, direct: true}
	}
	sc.runs = append(sc.runs, cur)

	for ri := p.lo; ri < len(sc.runs); ri++ {
		r := &sc.runs[ri]
		n := int(r.end - r.off)
		var buf []byte
		if head := &reqs[order[r.lo]]; r.direct && cap(head.Buf) >= n {
			buf = head.Buf[:n]
		} else {
			r.direct = false
			buf = bufpool.Get(n)
		}
		sc.merged = append(sc.merged, ReadReq{Off: r.off, Len: n, Buf: buf, Tag: ri - p.lo})
	}
	p.hi = len(sc.runs)
	return p, nil
}

// adjacent reports whether next's buffer starts exactly where prev's
// request window ends, in the same backing array — together with
// gap-free offsets, what lets a run be read in place.
func adjacent(prev, next *ReadReq) bool {
	rest := prev.Buf[prev.Len:cap(prev.Buf)]
	return len(rest) > 0 && &rest[0] == &next.Buf[0]
}

// scatter copies each original request's bytes out of its run's merged
// buffer; direct runs already landed in place.
func (sc *coalesceScratch) scatter(p coalescePlan, reqs []ReadReq) {
	for ri := p.lo; ri < p.hi; ri++ {
		r := sc.runs[ri]
		if r.direct {
			continue
		}
		merged := sc.merged[ri]
		for oi := r.lo; oi < r.hi; oi++ {
			req := &reqs[sc.sorter.order[oi]]
			src := req.Off - r.off
			copy(req.Buf[:req.Len], merged.Buf[src:src+int64(req.Len)])
		}
	}
}
