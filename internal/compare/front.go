package compare

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/simclock"
	"repro/internal/stream"
)

// deserializeBytesPerSec prices metadata parsing (a memory-bandwidth-bound
// scan) on the virtual clock.
const deserializeBytesPerSec = 5e9

// Front is the one stage-1 front end behind every Merkle planner. Over a
// member list and a topology pair list it:
//
//   - opens the members through one chunk source: their checkpoint
//     containers, or their leaf manifests plus the shared CAS pack when a
//     cas.Store is given (CompareTreesOnly opens no source);
//   - loads each member's metadata once, behind the ε, schema and
//     field-count gates;
//   - runs the pruned tree diff per pair;
//   - with the pack source, CAS-prunes per pair: extent equality and
//     memoized digest-pair verdicts remove candidates without a read;
//   - accumulates memo replays and stage-2 verdicts per pair, and the
//     report step sorts them into each pair's Result.
//
// Three stage-2 executors consume it: the stream pipeline (CompareMerkle,
// CompareDiff, and CompareDirect's sweep), the shared-union read
// (GroupCompare, GroupCompareDiff) and the sharded partition/execute of
// internal/shard, which plugs in through RunSharded and the exported
// methods below. Every planner is an engine plan, so cancellation is
// observed before every step and the cleanup chain closes every opened
// file on every exit path. No Result or GroupReport references a Front:
// metadata trees, union buffers and readers die with the plan.
type Front struct {
	store *pfs.Store
	cs    *cas.Store // non-nil: chunks live in the shared CAS pack
	opts  Options
	rep   *GroupReport
	accs  []*pairAcc
	// noData marks the metadata-only plan (CompareTreesOnly): no chunk
	// source, every field compared, and no diff kernels priced — the
	// stage-1-only paths report chunk fractions, not device time.
	noData bool

	readers []*ckpt.Reader  // container source
	mans    []*cas.Manifest // pack source
	pack    *pfs.File

	metas         []*Metadata
	fields        []string
	selected      func(string) bool
	totalElements int64

	startOps, startBytes int64

	// Stage-2 state.
	hashers    map[errbound.DType]*errbound.Hasher
	refs       []chunkRef // stream executor
	chunks     []stream.ChunkPair
	unions     []union           // shared-union executor
	leafOK     []map[[2]int]bool // per-member integrity verdicts
	rereadCost pfs.Cost
	computeErr bool
}

// pairAcc accumulates one pair's verdicts — memo replays, stage-2
// verifications and unverified chunks — until the report step sorts them
// into its Result.
type pairAcc struct {
	res *Result
	// cands[f] holds the pair's candidate chunks in field f that still
	// need stage 2 (nil when the field's trees match or all were pruned).
	cands      [][]int
	diffs      map[int][]int64 // field -> absolute divergent indices
	changed    int
	verified   int
	unverified int
}

// add lands one chunk's verdict: its chunk-relative divergent indices,
// offset by base. The direct sweep passes chunk -1: it has no Merkle
// chunks to count as changed.
func (a *pairAcc) add(field, chunk int, base int64, idx []int64) {
	for _, e := range idx {
		a.diffs[field] = append(a.diffs[field], base+e)
	}
	if len(idx) > 0 && chunk >= 0 {
		a.changed++
	}
}

// hasCands reports whether any candidate chunk still needs stage 2.
func (a *pairAcc) hasCands() bool {
	for _, c := range a.cands {
		if len(c) > 0 {
			return true
		}
	}
	return false
}

// planStep is one stage-2 executor step.
type planStep struct {
	kind  engine.StepKind
	label string
	run   engine.StepFunc
}

// newFront returns the front end of a comparison over members, covering
// the given member-index pairs, with pair Results of the given method.
func newFront(store *pfs.Store, cs *cas.Store, members []string, pairs [][2]int, opts Options, method string) *Front {
	f := &Front{
		store:   store,
		cs:      cs,
		opts:    opts,
		rep:     &GroupReport{Members: members, Pairs: make([]GroupPairReport, len(pairs))},
		accs:    make([]*pairAcc, len(pairs)),
		hashers: make(map[errbound.DType]*errbound.Hasher),
	}
	for pi, pr := range pairs {
		res := &Result{Method: method}
		f.rep.Pairs[pi] = GroupPairReport{A: pr[0], B: pr[1], NameA: members[pr[0]], NameB: members[pr[1]], Result: res}
		f.accs[pi] = &pairAcc{res: res, diffs: make(map[int][]int64)}
	}
	return f
}

// newPairFront returns the front end of a one-pair comparison.
func newPairFront(store *pfs.Store, cs *cas.Store, nameA, nameB string, opts Options, method string) *Front {
	return newFront(store, cs, []string{nameA, nameB}, [][2]int{{0, 1}}, opts, method)
}

// newGroupFront returns the front end of an N-run group comparison:
// member 0 is the baseline, and the topology selects the pairs.
func newGroupFront(store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology Topology, opts Options, method string) (*Front, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("compare: group needs at least one run besides the baseline")
	}
	members := append([]string{baseline}, runs...)
	pairs, err := topology.pairList(len(members))
	if err != nil {
		return nil, err
	}
	f := newFront(store, cs, members, pairs, opts, method)
	f.rep.Topology = topology
	return f, nil
}

// run executes the comparison plan: open, then — when stage1 is set —
// load-metadata, tree-diff and, with the pack source, cas-prune; then the
// stage-2 executor's steps and the report. Step errors come back
// unwrapped (the engine report records which step failed).
func (f *Front) run(ctx context.Context, openLabel string, stage1 bool, stage2 ...planStep) (*GroupReport, error) {
	if f.cs != nil {
		if err := checkMemo(f.opts.Memo, f.opts.Epsilon); err != nil {
			return nil, err
		}
	}
	var p engine.Plan
	p.Retry = f.opts.Retry
	prev := p.Add(engine.StepSetup, openLabel, f.stepOpen)
	if stage1 {
		prev = p.Add(engine.StepLoadMetadata, "load-metadata", f.stepLoadMetadata, prev)
		prev = p.Add(engine.StepTreeDiff, "tree-diff", f.stepTreeDiff, prev)
		if f.cs != nil {
			prev = p.Add(engine.StepTreeDiff, "cas-prune", f.stepCASPrune, prev)
		}
	}
	for _, s := range stage2 {
		prev = p.Add(s.kind, s.label, s.run, prev)
	}
	p.Add(engine.StepReport, "report", f.stepReport, prev)
	erep, err := engine.Execute(ctx, &p)
	f.rep.Steps = erep.Steps
	if err != nil {
		return nil, err
	}
	return f.rep, nil
}

// pairResult returns a one-pair plan's Result with the plan-level
// accounting folded in.
func pairResult(rep *GroupReport, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res := rep.Pairs[0].Result
	res.CheckpointBytes = rep.CheckpointBytes
	res.BytesRead = rep.BytesRead
	res.Breakdown = rep.Breakdown
	res.Steps = rep.Steps
	res.ReadRetries = rep.ReadRetries
	res.RingFallbacks = rep.RingFallbacks
	return res, nil
}

// stepOpen opens every member through the chunk source and charges the
// fixed setup cost.
func (f *Front) stepOpen(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	f.startOps, f.startBytes = f.store.ReadStats()
	var err error
	switch {
	case f.noData:
	case f.cs != nil:
		err = f.openPack(ctx, x)
	default:
		err = f.openContainers(x)
	}
	if err != nil {
		return err
	}
	f.rep.Breakdown.AddVirtual(metrics.PhaseSetup, f.opts.SetupVirtual)
	f.rep.Breakdown.AddWall(metrics.PhaseSetup, sw.Lap())
	x.AddVirtual(f.opts.SetupVirtual)
	return nil
}

// openContainers opens every member's checkpoint on the cleanup chain and
// validates schema parity.
func (f *Front) openContainers(x *engine.Exec) error {
	members := f.rep.Members
	f.readers = make([]*ckpt.Reader, len(members))
	for i, name := range members {
		r, _, err := ckpt.OpenReader(f.store, name)
		if err != nil {
			return err
		}
		x.CloseOnExit(r)
		f.readers[i] = r
		if i > 0 && !ckpt.SameSchema(f.readers[0].Meta(), r.Meta()) {
			return fmt.Errorf("compare: %s and %s have different schemas", members[0], name)
		}
	}
	f.rep.CheckpointBytes = f.readers[0].Meta().TotalBytes()
	return nil
}

// openPack loads and cross-validates every member's leaf manifest and
// opens the shared pack on the cleanup chain: a differentially captured
// checkpoint has no container, its chunks are pack extents.
func (f *Front) openPack(ctx context.Context, x *engine.Exec) error {
	members := f.rep.Members
	f.mans = make([]*cas.Manifest, len(members))
	var c pfs.Cost
	for i, name := range members {
		m, cost, err := cas.LoadManifest(ctx, f.store, name)
		if err != nil {
			return err
		}
		c.Add(cost)
		f.mans[i] = m
		if i > 0 && !cas.SameSchema(f.mans[0], m) {
			return fmt.Errorf("compare: manifests of %s and %s have different schemas", members[0], name)
		}
	}
	//lint:ignore floatcmp,epsflow manifest digests are only comparable at the exact ε they were captured with
	if f.mans[0].Epsilon != f.opts.Epsilon {
		return fmt.Errorf("compare: manifest ε %g does not match requested ε %g", f.mans[0].Epsilon, f.opts.Epsilon)
	}
	pack, err := f.cs.Pack()
	if err != nil {
		return err
	}
	x.CloseOnExit(pack)
	f.pack = pack
	f.rep.CheckpointBytes = f.mans[0].TotalBytes()
	f.priceLoad(x, c)
	return nil
}

// priceLoad charges reading and parsing serialized per-member state
// (manifests, Merkle metadata) to the report and the plan clock.
func (f *Front) priceLoad(x *engine.Exec, c pfs.Cost) {
	readV := f.store.Model().SerialReadTime(c, f.store.Sharers())
	deserV := simclock.BandwidthTime(c.TotalBytes(), deserializeBytesPerSec)
	f.rep.BytesRead += c.TotalBytes()
	f.rep.Breakdown.AddVirtual(metrics.PhaseRead, readV)
	f.rep.Breakdown.AddVirtual(metrics.PhaseDeserialize, deserV)
	x.AddVirtual(readV + deserV)
}

// stepLoadMetadata loads each member's Merkle metadata exactly once — the
// first saving of a group versus sequential pairwise comparison — and
// validates every member against the baseline's ε and field count.
func (f *Front) stepLoadMetadata(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	f.metas = make([]*Metadata, len(f.rep.Members))
	var c pfs.Cost
	var deserWall time.Duration
	for i, name := range f.rep.Members {
		m, cost, dwall, err := LoadMetadata(ctx, f.store, name)
		if err != nil {
			return err
		}
		c.Add(cost)
		deserWall += dwall
		f.metas[i] = m
		if i > 0 {
			if err := checkMetaPair(f.metas[0], m, f.opts.Epsilon); err != nil {
				return err
			}
		}
	}
	f.rep.MemberRoots = make([]murmur3.Digest, len(f.metas))
	for i, m := range f.metas {
		f.rep.MemberRoots[i] = m.CombinedRoot()
	}
	for _, pr := range f.rep.Pairs {
		pr.Result.RootA, pr.Result.RootB = f.rep.MemberRoots[pr.A], f.rep.MemberRoots[pr.B]
	}
	f.rep.MetadataBytes = f.metas[0].Bytes()
	f.priceLoad(x, c)
	f.rep.Breakdown.AddWall(metrics.PhaseRead, sw.Lap())
	f.rep.Breakdown.AddWall(metrics.PhaseDeserialize, deserWall)

	base := f.metas[0].Fields
	f.fields = make([]string, len(base))
	for i := range base {
		f.fields[i] = base[i].Name
	}
	if f.noData {
		f.selected = func(string) bool { return true }
		for _, fm := range base {
			f.rep.CheckpointBytes += fm.Tree.DataLen()
		}
	} else {
		selected, err := f.opts.fieldFilter(f.fields)
		if err != nil {
			return err
		}
		f.selected = selected
	}
	for _, fm := range base {
		if f.selected(fm.Name) {
			f.totalElements += fm.Tree.DataLen() / int64(fm.DType.Size())
		}
	}
	return nil
}

// checkMetaPair validates that two metadata files are comparable with each
// other at the requested ε.
func checkMetaPair(ma, mb *Metadata, eps float64) error {
	//lint:ignore floatcmp metadata is only valid for the exact ε it was built with; bitwise equality is the contract
	if ma.Epsilon != eps || mb.Epsilon != eps {
		return fmt.Errorf("compare: metadata ε (%g, %g) does not match requested ε %g",
			ma.Epsilon, mb.Epsilon, eps)
	}
	if len(ma.Fields) != len(mb.Fields) {
		return fmt.Errorf("compare: metadata field counts differ: %d vs %d",
			len(ma.Fields), len(mb.Fields))
	}
	return nil
}

// stepTreeDiff runs stage 1 for every pair from the in-memory trees — no
// I/O regardless of pair count: the pruned BFS per selected field. The
// executor is wrapped so a canceled context stops the diff kernels
// between poll intervals.
func (f *Front) stepTreeDiff(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	exec := device.Cancelable{Done: ctx.Done(), Inner: f.opts.Exec}
	var treeVirtual time.Duration
	for pi, pr := range f.rep.Pairs {
		acc := f.accs[pi]
		acc.cands = make([][]int, len(f.fields))
		for fi, fm := range f.metas[pr.A].Fields {
			if !f.selected(fm.Name) {
				continue
			}
			ta, tb := fm.Tree, f.metas[pr.B].Fields[fi].Tree
			start := f.opts.StartLevel
			if start < 0 {
				start = ta.DefaultStartLevel(exec.Workers())
			}
			chunks, nodes, err := merkle.Diff(ta, tb, start, exec)
			if err != nil {
				return fmt.Errorf("compare: %s vs %s field %q: %w", pr.NameA, pr.NameB, fm.Name, err)
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			acc.res.TotalChunks += ta.NumChunks()
			acc.res.CandidateChunks += len(chunks)
			if len(chunks) > 0 {
				acc.cands[fi] = chunks
			}
			if f.noData {
				continue
			}
			// One kernel per visited level (bounded by depth), nodes at
			// the node-hash comparison rate.
			levels := ta.Depth() - start + 1
			treeVirtual += time.Duration(levels)*f.opts.Device.KernelLaunch +
				simclock.BandwidthTime(nodes*16, float64(f.opts.Device.NodeHashesPerSec)*16)
		}
	}
	f.rep.Breakdown.AddVirtual(metrics.PhaseCompareTree, treeVirtual)
	f.rep.Breakdown.AddWall(metrics.PhaseCompareTree, sw.Lap())
	x.AddVirtual(treeVirtual)
	return nil
}

// stepCASPrune removes, per pair, candidate chunks whose verdict the pack
// proves without a read: both sides deduplicated to the same extent
// (identical by construction — a pure stage-1 false positive, possible
// only when the metadata predates the shared capture), or a digest pair
// whose verdict is memoized, replayed into the pair's accumulator. Pruned
// chunks cost zero stage-2 reads and are never counted Unverified: their
// verdict is proven, not skipped.
func (f *Front) stepCASPrune(ctx context.Context, x *engine.Exec) error {
	memo := f.opts.Memo
	for pi, pr := range f.rep.Pairs {
		acc := f.accs[pi]
		for fi, chunks := range acc.cands {
			if len(chunks) == 0 {
				continue
			}
			fA, fB := &f.mans[pr.A].Fields[fi], &f.mans[pr.B].Fields[fi]
			tree := f.metas[pr.A].Fields[fi].Tree
			chunkElems := int64(tree.ChunkSize()) / int64(fA.DType.Size())
			kept := chunks[:0]
			for _, ci := range chunks {
				// The manifest pins extent length to chunk length; stage 2
				// slices chunks by the tree's ranges.
				if _, n := tree.ChunkRange(ci); int(fA.Locs[ci].Len) != n || int(fB.Locs[ci].Len) != n {
					return fmt.Errorf("compare: field %q chunk %d: pack extents %d/%d bytes, tree says %d",
						f.fields[fi], ci, fA.Locs[ci].Len, fB.Locs[ci].Len, n)
				}
				if fA.Locs[ci] == fB.Locs[ci] {
					acc.res.CASPrunedChunks++
					continue
				}
				if memo != nil {
					if idx, ok := memo.lookup(fA.Digests[ci], fB.Digests[ci], fA.DType); ok {
						acc.res.CASPrunedChunks++
						acc.add(fi, ci, int64(ci)*chunkElems, idx)
						continue
					}
				}
				kept = append(kept, ci)
			}
			if len(kept) == 0 {
				kept = nil
			}
			acc.cands[fi] = kept
		}
	}
	return nil
}

// stepReport sorts every pair's accumulated verdicts into its Result —
// per-field divergence lists ascending, in field order — and finalizes
// the store-level I/O accounting.
func (f *Front) stepReport(ctx context.Context, x *engine.Exec) error {
	for _, acc := range f.accs {
		res := acc.res
		res.CheckpointBytes = f.rep.CheckpointBytes
		res.MetadataBytes = f.rep.MetadataBytes
		res.TotalElements = f.totalElements
		res.ChangedChunks += acc.changed
		if acc.unverified > 0 {
			res.Degraded = true
			res.UnverifiedChunks += acc.unverified
		}
		for fi, name := range f.fields {
			if idx := acc.diffs[fi]; len(idx) > 0 {
				sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
				res.Diffs = append(res.Diffs, FieldDiff{Field: name, Indices: idx})
				res.DiffCount += int64(len(idx))
			}
		}
		if f.noData && res.CandidateChunks > 0 {
			res.DiffCount = -1 // unknown count: stage 1 alone cannot say
		}
	}
	ops, bytes := f.store.ReadStats()
	f.rep.ReadOps = ops - f.startOps
	f.rep.ReadBytes = bytes - f.startBytes
	return nil
}

// extent locates member m's chunk ci of field fi in the chunk source: its
// span in the member's container, or its representative's pack extent.
func (f *Front) extent(m, fi, ci int) (off int64, n int) {
	off, n = f.metas[m].Fields[fi].Tree.ChunkRange(ci)
	if f.pack != nil {
		return f.mans[m].Fields[fi].Locs[ci].Off, n
	}
	return f.readers[m].FieldFileOffset(fi) + off, n
}

// file returns the file member m's chunks live in.
func (f *Front) file(m int) *pfs.File {
	if f.pack != nil {
		return f.pack
	}
	return f.readers[m].File()
}

// hasher returns the error-bounded hasher for a field dtype, built once
// per plan.
func (f *Front) hasher(dtype errbound.DType) (*errbound.Hasher, error) {
	if h := f.hashers[dtype]; h != nil {
		return h, nil
	}
	h, err := f.opts.hasherFor(dtype)
	if err != nil {
		return nil, err
	}
	f.hashers[dtype] = h
	return h, nil
}

// verifyLeaf is the integrity rung of the degradation ladder: member m's
// streamed bytes of chunk (fi, ci) must re-hash to the leaf its metadata
// was built from, so corruption beyond ε quantization (bit rot, a torn
// transfer, a rotted CAS extent) cannot masquerade as a clean chunk. On a
// mismatch the chunk is re-read once into data from its home in the chunk
// source: an in-flight flip re-reads clean, media corruption repeats. The
// verdict is cached per member, so a chunk several pairs share is checked
// once and every pair sees the recovered bytes.
func (f *Front) verifyLeaf(m, fi, ci int, h *errbound.Hasher, data []byte) bool {
	if f.leafOK == nil {
		f.leafOK = make([]map[[2]int]bool, len(f.rep.Members))
	}
	if f.leafOK[m] == nil {
		f.leafOK[m] = make(map[[2]int]bool)
	}
	key := [2]int{fi, ci}
	if ok, seen := f.leafOK[m][key]; seen {
		return ok
	}
	want := f.metas[m].Fields[fi].Tree.Leaf(ci)
	ok := false
	if got, err := h.HashChunk(data); err == nil && got == want {
		ok = true
	} else {
		off, n := f.extent(m, fi, ci)
		nr, cost, rerr := f.file(m).ReadAt(data, off)
		f.rereadCost.Add(cost)
		if rerr == nil && nr == n {
			if got, herr := h.HashChunk(data); herr == nil && got == want {
				ok = true
			}
		}
	}
	f.leafOK[m][key] = ok
	return ok
}

// memoize records a verified chunk verdict under its digest pair. Sound
// only with the pack source: both byte strings are CAS representatives,
// so one digest names exactly one stored byte string and the verdict is a
// pure function of the (full) digest pair.
func (f *Front) memoize(pair, fi, ci int, idx []int64) {
	if f.pack == nil || f.opts.Memo == nil {
		return
	}
	pr := f.rep.Pairs[pair]
	fA, fB := &f.mans[pr.A].Fields[fi], &f.mans[pr.B].Fields[fi]
	f.opts.Memo.insert(fA.Digests[ci], fB.Digests[ci], fA.DType, idx)
}

// RunSharded runs a comparison over checkpoint containers with the
// sharded stage-2 executor of internal/shard: this front end's open,
// load-metadata and tree-diff steps, then the executor's partition and
// execute steps, then the shared report. Member 0 is the baseline. opts
// must already be normalized (Options.Normalize). The executor reads the
// front end through Pairs, Member and Candidates, lands its verdicts with
// Record and books its cost with Charge.
func RunSharded(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology Topology, opts Options,
	method, openLabel string, partition, execute func(ctx context.Context, x *engine.Exec, f *Front) error) (*GroupReport, error) {
	f, err := newGroupFront(store, nil, baseline, runs, topology, opts, method)
	if err != nil {
		return nil, err
	}
	return f.run(ctx, openLabel, true,
		planStep{engine.StepPartition, "partition", func(ctx context.Context, x *engine.Exec) error { return partition(ctx, x, f) }},
		planStep{engine.StepShardExecute, "shard-execute", func(ctx context.Context, x *engine.Exec) error { return execute(ctx, x, f) }})
}

// Pairs returns the compared pairs in topology order.
func (f *Front) Pairs() []GroupPairReport { return f.rep.Pairs }

// Member returns member m's open checkpoint and its loaded metadata.
func (f *Front) Member(m int) (*ckpt.Reader, *Metadata) { return f.readers[m], f.metas[m] }

// Candidates returns pair p's candidate chunks in field fi, ascending, and
// whether the field takes part in the comparison at all.
func (f *Front) Candidates(p, fi int) ([]int, bool) {
	return f.accs[p].cands[fi], f.selected(f.fields[fi])
}

// Record lands stage-2 verdicts for pair p's field fi: absolute divergent
// element indices, and the chunks found changed and left unverified.
func (f *Front) Record(p, fi int, diffs []int64, changed, unverified int) {
	acc := f.accs[p]
	acc.diffs[fi] = append(acc.diffs[fi], diffs...)
	acc.changed += changed
	acc.unverified += unverified
}

// Charge books a stage-2 executor's run: its overlapped virtual time (the
// pipeline, or the sharded makespan) and wall time on the verification
// phase, its data bytes and re-issued reads, and the integrity re-reads
// the front end issued for it.
func (f *Front) Charge(x *engine.Exec, wall, virtual time.Duration, bytesRead int64, retries int) {
	f.rep.BytesRead += bytesRead
	f.rep.ReadRetries += retries
	if f.rereadCost != (pfs.Cost{}) {
		f.rep.BytesRead += f.rereadCost.TotalBytes()
		v := f.store.Model().SerialReadTime(f.rereadCost, f.store.Sharers())
		f.rep.Breakdown.AddVirtual(metrics.PhaseRead, v)
		x.AddVirtual(v)
		f.rereadCost = pfs.Cost{}
	}
	// Following the paper's timer structure (Fig. 6), the verification
	// phase owns its overlapped data loading: PhaseRead holds only the
	// metadata reads and integrity re-reads.
	f.rep.PipelineVirtual = virtual
	f.rep.Breakdown.AddVirtual(metrics.PhaseCompareDirect, virtual)
	f.rep.Breakdown.AddWall(metrics.PhaseCompareDirect, wall)
	x.AddVirtual(virtual)
}
