package compare

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/aio"
	"repro/internal/bufpool"
	"repro/internal/cas"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/stream"
)

// Topology selects which checkpoint pairs an N-run group comparison
// covers.
type Topology int

// Group-comparison topologies.
const (
	// TopologyStar compares every run against the baseline (N-1 pairs):
	// the reproducibility question "which runs diverge from the
	// reference?".
	TopologyStar Topology = iota + 1
	// TopologyAllPairs compares every run against every other
	// (N·(N-1)/2 pairs): the ensemble question "which runs diverge from
	// each other?".
	TopologyAllPairs
)

// String returns the topology's report name.
func (t Topology) String() string {
	switch t {
	case TopologyStar:
		return "star"
	case TopologyAllPairs:
		return "all-pairs"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// ParseTopology maps a topology's report name back to it: "" and
// "star" are star, "all-pairs" is all-pairs, anything else is an error.
func ParseTopology(name string) (Topology, error) {
	switch name {
	case "", TopologyStar.String():
		return TopologyStar, nil
	case TopologyAllPairs.String():
		return TopologyAllPairs, nil
	default:
		return 0, fmt.Errorf("compare: unknown topology %q", name)
	}
}

// pairList enumerates the member-index pairs of a topology over n members
// (member 0 is the baseline).
func (t Topology) pairList(n int) ([][2]int, error) {
	var out [][2]int
	switch t {
	case TopologyStar:
		for i := 1; i < n; i++ {
			out = append(out, [2]int{0, i})
		}
	case TopologyAllPairs:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, [2]int{i, j})
			}
		}
	default:
		return nil, fmt.Errorf("compare: unknown topology %d", int(t))
	}
	return out, nil
}

// GroupPairReport is one pair's outcome within a group comparison.
type GroupPairReport struct {
	// A and B index GroupReport.Members.
	A, B int
	// NameA and NameB are the compared checkpoint names.
	NameA, NameB string
	// Result is the pair's comparison outcome (method "merkle-group").
	Result *Result
}

// GroupReport is the outcome of one N-run group comparison.
type GroupReport struct {
	// Members lists the compared checkpoints; index 0 is the baseline.
	Members []string
	// Topology is the pair coverage.
	Topology Topology
	// Pairs holds one report per compared pair, in topology order.
	Pairs []GroupPairReport
	// ReadOps and ReadBytes are the store-level PFS read operations and
	// bytes the whole group comparison issued (metadata + shared candidate
	// reads, after coalescing) — the quantity GroupCompare minimizes
	// versus sequential pairwise comparison.
	ReadOps, ReadBytes int64
	// BytesRead counts data + metadata bytes delivered to the comparator.
	BytesRead int64
	// MetadataBytes is the serialized metadata size per member.
	MetadataBytes int64
	// CheckpointBytes is the raw data size of ONE member's checkpoint.
	CheckpointBytes int64
	// PipelineVirtual is the overlapped virtual time of the shared
	// stage-2 read+verify pipeline.
	PipelineVirtual time.Duration
	// Breakdown is the group-level per-phase cost split.
	Breakdown metrics.Breakdown
	// Steps is the engine's per-step timing table.
	Steps metrics.StepSpans
	// ReadRetries counts stage-2 batch reads re-issued under the retry
	// policy; RingFallbacks counts member unions served by the fresh-ring
	// fallback after the shared ring reported closed.
	ReadRetries   int
	RingFallbacks int
	// MemberRoots holds each member's combined Merkle root
	// (Metadata.CombinedRoot), in Members order, for the verdict ledger.
	MemberRoots []murmur3.Digest
}

// Reproducible reports whether every compared pair cleanly matched within
// ε. A degraded pair (unread or unverifiable chunks) is never a clean
// match, so a degraded group is never reproducible.
func (g *GroupReport) Reproducible() bool { return g.Outcome() == Outcome{} }

// Degraded reports whether any pair completed on a degraded path.
func (g *GroupReport) Degraded() bool { return g.Outcome().Degraded }

// UnverifiedChunks totals the unverified candidate chunks across pairs.
func (g *GroupReport) UnverifiedChunks() int {
	total := 0
	for i := range g.Pairs {
		total += g.Pairs[i].Result.UnverifiedChunks
	}
	return total
}

// GroupCompare compares N runs' checkpoints as one group: each member's
// metadata is loaded once, the tree diffs of every pair (by topology) run
// from those in-memory trees, the candidate-chunk sets of pairs sharing a
// member are merged, and each member's union is fetched with ONE
// deduplicated batched read — so an N-run comparison issues strictly fewer
// PFS read operations and bytes than N-1 (star) or N·(N-1)/2 (all-pairs)
// sequential pairwise comparisons, which re-read shared members per pair.
// Member 0 of the group is the baseline; topology selects star (baseline
// vs each run) or all-pairs coverage. Every member must have Merkle
// metadata at the options' ε and chunk size.
func GroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	return groupCompare(ctx, store, nil, baseline, runs, topology, opts, "merkle-group", "open-members", "merge-unions")
}

// GroupCompareDiff compares N differentially captured runs as one group.
// It composes the two read-reduction layers: the group reads each chunk
// once however many pairs share it, and the CAS pack collapses that
// further — chunks deduplicated across members (the common case for runs
// of the same simulation) occupy one extent, fetched once for the whole
// group. CAS pruning removes candidates whose verdict the store proves
// (never reported Unverified — their verdict is proven, not skipped)
// before the union is assembled. Member 0 is the baseline. Every member
// must have been captured into cs with its manifest and metadata on the
// store at the options' ε.
func GroupCompareDiff(ctx context.Context, store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	return groupCompare(ctx, store, cs, baseline, runs, topology, opts, "merkle-cas-group", "open-manifests", "merge-pack-union")
}

func groupCompare(ctx context.Context, store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology Topology, opts Options, method, openLabel, mergeLabel string) (*GroupReport, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	f, err := newGroupFront(store, cs, baseline, runs, topology, opts, method)
	if err != nil {
		return nil, err
	}
	return f.run(ctx, openLabel, true,
		planStep{engine.StepCoalesce, mergeLabel, f.stepMergeUnions},
		planStep{engine.StepStreamVerify, "shared-read-verify", f.stepSharedVerify})
}

// union is one file's deduplicated stage-2 read: every extent any pair
// needs from the file, offset-sorted and read once into buf. The extents
// sit back to back in buf in offset order, so a coalescing backend reads
// every gap-free run of them in place; buf comes from bufpool and goes
// back when the plan exits.
type union struct {
	pos  map[int64]int64 // extent offset -> position in buf
	buf  []byte
	reqs []aio.ReadReq
}

// unionOf returns the union member m's chunks are read into: its own
// container's, or the one shared pack's.
func (f *Front) unionOf(m int) int {
	if f.pack != nil {
		return 0
	}
	return m
}

// stepMergeUnions builds the shared-union executor's read plan: the union
// of every pair's candidate chunks, keyed by (file, extent). A chunk two
// pairs both need from one member — or, in the pack, two members share
// as one deduplicated extent — is read once for the whole group.
func (f *Front) stepMergeUnions(ctx context.Context, x *engine.Exec) error {
	need := make([]map[int64]int, len(f.rep.Members)) // union -> extent offset -> length
	for pi, pr := range f.rep.Pairs {
		for fi, chunks := range f.accs[pi].cands {
			for _, ci := range chunks {
				for _, m := range [2]int{pr.A, pr.B} {
					u := f.unionOf(m)
					if need[u] == nil {
						need[u] = make(map[int64]int)
					}
					off, n := f.extent(m, fi, ci)
					need[u][off] = n
				}
			}
		}
	}
	f.unions = make([]union, len(need))
	for ui, extents := range need {
		if len(extents) == 0 {
			continue
		}
		offs := make([]int64, 0, len(extents))
		var total int64
		for off, n := range extents {
			offs = append(offs, off)
			total += int64(n)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		u := &f.unions[ui]
		u.buf = bufpool.Get(int(total))
		x.Defer(func() { bufpool.Put(u.buf) })
		u.pos = make(map[int64]int64, len(offs))
		u.reqs = make([]aio.ReadReq, 0, len(offs))
		var pos int64
		for _, off := range offs {
			n := extents[off]
			u.pos[off] = pos
			u.reqs = append(u.reqs, aio.ReadReq{Off: off, Len: n, Buf: u.buf[pos : pos+int64(n)], Tag: len(u.reqs)})
			pos += int64(n)
		}
	}
	return nil
}

// stepSharedVerify runs the shared-union executor's stage 2: each union is
// fetched with one batched read (consecutive unions paired through the
// backend's overlapped pair path), and each pair is verified element-wise
// from the union buffers as soon as both of its members have landed.
//
// Reads climb the degradation ladder: Transient errors retry with backoff
// on the virtual clock, a failed paired read retries each union solo, a
// closed shared ring falls back to a fresh ring, and — with
// Options.Degrade set — a union that still cannot be read drops every
// pair it touches to a metadata-only verdict instead of failing the plan.
// Pruned chunks keep their proven verdict and are never counted
// Unverified.
func (f *Front) stepSharedVerify(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	pairRd, _ := f.opts.Backend.(aio.PairReader)
	var toRead []int
	for ui := range f.unions {
		if len(f.unions[ui].reqs) > 0 {
			toRead = append(toRead, ui)
		}
	}
	loaded := make([]bool, len(f.unions))
	failed := make([]bool, len(f.unions))
	compared := make([]bool, len(f.rep.Pairs))
	vp := stream.NewVirtualPipeline(f.opts.Depth)
	var bytesRead int64
	retries := 0

	// compareReady verifies every not-yet-compared pair whose unions have
	// both landed, returning the compute virtual time of the batch.
	compareReady := func() (time.Duration, error) {
		var comp time.Duration
		for pi, pr := range f.rep.Pairs {
			if compared[pi] || !f.accs[pi].hasCands() || !loaded[f.unionOf(pr.A)] || !loaded[f.unionOf(pr.B)] {
				continue
			}
			compared[pi] = true
			c, err := f.verifyPair(ctx, pi)
			if err != nil {
				return comp, err
			}
			comp += c
		}
		return comp, nil
	}

	for bi := 0; bi < len(toRead); bi += 2 {
		if err := ctx.Err(); err != nil {
			return err
		}
		var io time.Duration
		batch := toRead[bi:min(bi+2, len(toRead))]
		if len(batch) == 2 && pairRd != nil {
			ua, ub := &f.unions[batch[0]], &f.unions[batch[1]]
			attempts := 0
			backoff, err := f.opts.Retry.Do(ctx, func(attempt int) error {
				attempts = attempt + 1
				var rerr error
				_, io, rerr = pairRd.ReadBatchPair(ctx, f.file(batch[0]), f.file(batch[1]), ua.reqs, ub.reqs)
				return rerr
			})
			retries += attempts - 1
			io += backoff
			if err == nil {
				loaded[batch[0]], loaded[batch[1]] = true, true
				bytesRead += int64(len(ua.buf)) + int64(len(ub.buf))
			}
			// A failed paired read falls through to the solo rung below:
			// one bad member must not take down both.
		}
		for _, ui := range batch {
			if loaded[ui] {
				continue
			}
			u := &f.unions[ui]
			rd, err := stream.ReadBatch(ctx, f.opts.Retry, f.opts.Backend, func(b aio.Backend) (pfs.Cost, time.Duration, error) {
				return b.ReadBatch(ctx, f.file(ui), u.reqs)
			})
			io += rd.IO
			retries += rd.Retries
			if rd.FellBack {
				f.rep.RingFallbacks++
			}
			switch {
			case err == nil:
				loaded[ui] = true
				bytesRead += int64(len(u.buf))
			case f.opts.Degrade && ctx.Err() == nil:
				failed[ui] = true
			default:
				return fmt.Errorf("compare: group verification: %w", err)
			}
		}
		comp, err := compareReady()
		if err != nil {
			return err
		}
		vp.Advance(io, comp)
	}
	// Pairs touching a union that never landed degrade to the metadata-only
	// verdict: stage 1 proved which chunks could diverge; none of the
	// remaining ones were verified.
	for pi, pr := range f.rep.Pairs {
		acc := f.accs[pi]
		if compared[pi] || !failed[f.unionOf(pr.A)] && !failed[f.unionOf(pr.B)] {
			continue
		}
		for _, chunks := range acc.cands {
			acc.unverified += len(chunks)
		}
	}
	f.Charge(x, sw.Lap(), vp.Total(), bytesRead, retries)
	return nil
}

// verifyPair compares one pair's candidate chunks from the union buffers
// into the pair's accumulator, and returns the priced compute time of its
// verification batch.
func (f *Front) verifyPair(ctx context.Context, pi int) (time.Duration, error) {
	pr := f.rep.Pairs[pi]
	acc := f.accs[pi]
	ua, ub := &f.unions[f.unionOf(pr.A)], &f.unions[f.unionOf(pr.B)]
	var pairBytes int64
	comp := f.opts.Device.KernelLaunch
	for fi, chunks := range acc.cands {
		if len(chunks) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return comp, err
		}
		fm := f.metas[pr.A].Fields[fi]
		h, err := f.hasher(fm.DType)
		if err != nil {
			return comp, err
		}
		chunkElems := int64(fm.Tree.ChunkSize()) / int64(fm.DType.Size())
		for _, ci := range chunks {
			offA, n := f.extent(pr.A, fi, ci)
			offB, _ := f.extent(pr.B, fi, ci)
			da := ua.buf[ua.pos[offA]:][:n]
			db := ub.buf[ub.pos[offB]:][:n]
			pairBytes += int64(n)
			if f.opts.Degrade && (!f.verifyLeaf(pr.A, fi, ci, h, da) || !f.verifyLeaf(pr.B, fi, ci, h, db)) {
				// An unverifiable side excludes the chunk from diffing.
				acc.unverified++
				continue
			}
			idx, _, err := h.CompareSlices(nil, da, db)
			if err != nil {
				return comp, err
			}
			f.memoize(pi, fi, ci, idx)
			acc.add(fi, ci, int64(ci)*chunkElems, idx)
		}
	}
	comp += f.opts.Device.TransferTime(2*pairBytes) + f.opts.Device.CompareRateTime(pairBytes)
	return comp, nil
}
