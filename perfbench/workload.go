package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/synth"
)

// Checkpoint shape shared by every workload: 3 float32 fields of 2^20
// elements (12 MiB), hashed in 64 KiB chunks under ε = 1e-5.
const (
	numFields  = 3
	fieldElems = 1 << 20
	chunkSize  = 64 << 10
	epsilon    = 1e-5
	// ingestSlots is the number of iteration slots the ingest run reuses,
	// so disk use stays bounded however long the run lasts.
	ingestSlots = 3
)

var fieldNames = []string{"x", "vx", "phi"}

// checkpoint is one synthetic checkpoint held in memory: the bytes the
// capture path writes and the oracle reads.
type checkpoint struct {
	run    string
	iter   int
	fields [][]byte
}

func (c *checkpoint) name() string { return ckpt.Name(c.run, c.iter, 0) }

func (c *checkpoint) meta() ckpt.Meta {
	specs := make([]ckpt.FieldSpec, len(c.fields))
	for i, f := range c.fields {
		specs[i] = ckpt.FieldSpec{Name: fieldNames[i], DType: errbound.Float32, Count: int64(len(f) / 4)}
	}
	return ckpt.Meta{RunID: c.run, Iteration: c.iter, Fields: specs}
}

func (c *checkpoint) bytes() int64 { return int64(numFields * fieldElems * 4) }

// job is one submission: its wire shape plus the capture an ingest
// iteration performs before submitting it.
type job struct {
	Kind         string   `json:"kind"`
	A            string   `json:"a,omitempty"`
	B            string   `json:"b,omitempty"`
	Baseline     string   `json:"baseline,omitempty"`
	Runs         []string `json:"runs,omitempty"`
	Topology     string   `json:"topology,omitempty"`
	Epsilon      float64  `json:"epsilon"`
	ChunkSize    int      `json:"chunkSize"`
	ShardWorkers int      `json:"shardWorkers,omitempty"`

	capture *checkpoint // ingest only: written and indexed before submit
	tag     string      // distinguishes captures that reuse a slot name
}

// key identifies the job's question, for the oracle.
func (j job) key() string {
	if j.Kind == "group" {
		return "group:" + j.Baseline + ">" + strings.Join(j.Runs, ",")
	}
	return j.Kind + ":" + j.A + "|" + j.B + j.tag
}

// pairs lists the checkpoint pairs the job compares.
func (j job) pairs() [][2]string {
	if j.Kind == "group" {
		out := make([][2]string, len(j.Runs))
		for i, r := range j.Runs {
			out[i] = [2]string{j.Baseline, r}
		}
		return out
	}
	return [][2]string{{j.A, j.B}}
}

// names lists the distinct checkpoints the job touches.
func (j job) names() []string {
	if j.Kind == "group" {
		return append([]string{j.Baseline}, j.Runs...)
	}
	return []string{j.A, j.B}
}

// expectation is the oracle's answer for one job.
type expectation struct {
	exit      int
	diffCount int64
}

// workload is one generated benchmark input: the checkpoints seeded at
// set-up, the per-client job streams, and the oracle's answers.
type workload struct {
	name    string
	clients int
	// seeded are captured into the store during set-up.
	seeded []*checkpoint
	// ingest: live[i%len(live)] is the checkpoint iteration i captures.
	live []*checkpoint
	// runIDs are registered as immutable bindings for every tenant.
	runIDs []string
	// next returns client c's k-th job.
	next func(c, k int) job
	// warm is the number of warm-up jobs per client during set-up.
	warm int
	// rssJobs is the fixed served-verdict count at which each window reads
	// the daemon's peak RSS; every window runs at least this many jobs.
	rssJobs int
	// traceJobs is the fixed job count of each traced-mode pass.
	traceJobs int
	// params records the generation parameters in the measurement record.
	params map[string]any

	expect map[string]expectation
	byName map[string]*checkpoint
}

func tenantOf(c int) string { return fmt.Sprintf("tenant%d", c) }

// generate builds a workload's inputs from the seed. Generation is
// deterministic in (name, seed).
func generate(name string, seed int64) (*workload, error) {
	switch name {
	case "triage":
		w := genTriage(seed)
		for k, e := range w.expect {
			if e.diffCount != 0 {
				return nil, fmt.Errorf("triage job %s diverges beyond ε (%d elements)", k, e.diffCount)
			}
		}
		return w, nil
	case "verify":
		return genVerify(seed), nil
	case "ingest":
		return genIngest(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want triage, verify or ingest)", name)
}

// baseFields generates one run's unperturbed fields.
func baseFields(seed int64) [][]byte {
	out := make([][]byte, numFields)
	for f := range out {
		out[f] = synth.FieldF32(fieldElems, seed+int64(f)*7919)
	}
	return out
}

// chunksPerField is the number of 64 KiB chunks in one field.
const chunksPerField = fieldElems * 4 / chunkSize

// falsePositivesPerField is how many chunks of each field a replica
// changes only within ε.
const falsePositivesPerField = 3

// divergedChunk is the perturbation of a chunk that diverges beyond ε:
// sparse changes of 1e-4 to 1e-2.
func divergedChunk(seed int64) synth.PerturbConfig {
	return synth.PerturbConfig{Seed: seed, BlockElems: chunkSize / 4, MagLo: 1e-4, MagHi: 1e-2,
		ChangedFrac: 1.0 / 1024}
}

// replica returns a copy of base in which, in every field, exactly
// diverged seeded chunks diverge beyond ε (perturbed by internal/synth)
// and falsePositivesPerField further chunks differ by one element moved
// to its neighbouring float32 across an ε-grid cell boundary — inside ε,
// but a hash mismatch stage 2 must check. Fixing the counts keeps every
// seed equally expensive; random perturbations made the number of
// stage-2 chunks, and with it the job cost, vary with the seed (and
// changes below one float32 ulp vanish in rounding altogether).
func replica(base [][]byte, seed int64, diverged int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, len(base))
	for f := range base {
		out[f] = append([]byte(nil), base[f]...)
		perm := rng.Perm(chunksPerField)
		for _, c := range perm[:diverged] {
			chunk := out[f][c*chunkSize : (c+1)*chunkSize]
			copy(chunk, synth.PerturbF32(chunk, divergedChunk(rng.Int63())))
		}
		for _, c := range perm[diverged : diverged+falsePositivesPerField] {
			nudgeAcrossCell(out[f][c*chunkSize:(c+1)*chunkSize], rng.Intn(chunkSize/4))
		}
	}
	return out
}

// nudgeAcrossCell moves the first element at or after index from (in
// circular order) whose next float32 up lies in another ε-grid cell yet
// within ε to that float32.
func nudgeAcrossCell(chunk []byte, from int) {
	n := len(chunk) / 4
	for i := 0; i < n; i++ {
		e := 4 * ((from + i) % n)
		x := math.Float32frombits(binary.LittleEndian.Uint32(chunk[e:]))
		y := math.Nextafter32(x, float32(math.Inf(1)))
		//lint:ignore floatcmp grid cell indices are integer-valued floats, compared exactly
		if float64(y)-float64(x) < epsilon && math.Floor(float64(y)/epsilon) != math.Floor(float64(x)/epsilon) {
			binary.LittleEndian.PutUint32(chunk[e:], math.Float32bits(y))
			return
		}
	}
}

func genTriage(seed int64) *workload {
	base := baseFields(seed)
	var runs []*checkpoint
	for r := 0; r < 6; r++ {
		fields := base
		if r >= 3 { // rep0..rep2 are bit-identical replicas
			fields = replica(base, seed*31+int64(r), 0)
		}
		runs = append(runs, &checkpoint{run: fmt.Sprintf("rep%d", r), iter: 1, fields: fields})
	}
	var all []job
	for i := range runs {
		for k := i + 1; k < len(runs); k++ {
			all = append(all, job{Kind: "compare", A: runs[i].name(), B: runs[k].name()})
		}
	}
	orders := shuffledOrders(seed, 2, len(all))
	w := &workload{
		name: "triage", clients: 2, seeded: runs, warm: 25, rssJobs: 1000, traceJobs: 300,
		next: func(c, k int) job { return all[orders[c][k%len(all)]] },
		params: map[string]any{"replicas": len(runs), "bit_identical": 3, "distinct_jobs": len(all),
			"false_positive_chunks_per_field": falsePositivesPerField},
	}
	return w.finish()
}

// divergedPerField are the verify replicas' diverged chunks per field:
// 20%, 40%, 60% and 85% of the 64.
var divergedPerField = []int{13, 26, 38, 54}

func genVerify(seed int64) *workload {
	base := baseFields(seed)
	v0 := &checkpoint{run: "div0", iter: 1, fields: base}
	runs := []*checkpoint{v0}
	for i, n := range divergedPerField {
		runs = append(runs, &checkpoint{run: fmt.Sprintf("div%d", i+1), iter: 1,
			fields: replica(base, seed*37+int64(i), n)})
	}
	reps := runs[1:]
	group := job{Kind: "group", Baseline: v0.name(), Topology: "star"}
	for _, r := range reps {
		group.Runs = append(group.Runs, r.name())
	}
	// The pairs are fixed so that every seed poses the same questions
	// about differently generated data; the seed only orders the mix.
	// The heavier compare costs about what the shard job does: the median
	// verdict falls between those two classes, and classes far apart there
	// would make it jump between them from run to run.
	mix := []job{
		{Kind: "compare", A: v0.name(), B: reps[0].name()},
		{Kind: "compare", A: v0.name(), B: reps[2].name()},
		group,
		{Kind: "shard", A: v0.name(), B: reps[3].name(), ShardWorkers: 2},
	}
	rng := rand.New(rand.NewSource(seed))
	// Each client walks the mix in its own seeded order, one cycle at a
	// time, so both tenants see every kind at the same rate.
	const cycles = 64
	orders := make([][]int, 2)
	for c := range orders {
		for i := 0; i < cycles; i++ {
			orders[c] = append(orders[c], rng.Perm(len(mix))...)
		}
	}
	w := &workload{
		name: "verify", clients: 2, seeded: runs, warm: 8, rssJobs: 100, traceJobs: 48,
		next: func(c, k int) job { return mix[orders[c][k%len(orders[c])]] },
		params: map[string]any{"replicas": len(reps), "diverged_chunks_per_field": divergedPerField,
			"false_positive_chunks_per_field": falsePositivesPerField, "diverged_perturb": divergedChunk(0),
			"mix": []string{mix[0].key(), mix[1].key(), mix[2].key(), mix[3].key()}, "shard_workers": 2},
	}
	return w.finish()
}

// ingestDivergedPerField is how many chunks per field an ingest
// iteration that diverges perturbs beyond ε: a quarter of them.
const ingestDivergedPerField = chunksPerField / 4

func genIngest(seed int64) *workload {
	var refs []*checkpoint
	for s := 0; s < ingestSlots; s++ {
		refs = append(refs, &checkpoint{run: "ref", iter: s + 1, fields: baseFields(seed + int64(s)*1009)})
	}
	// Iteration i captures slot i%3; every third iteration diverges
	// beyond ε (each slot in turn), the others reproduce within it. With
	// an even split the median verdict would sit on the boundary between
	// the two verdict classes and flip between them from run to run.
	var live []*checkpoint
	for i := 0; i < ingestSlots*ingestSlots; i++ {
		slot := i % ingestSlots
		diverged := 0
		if slot == (i/ingestSlots)%ingestSlots {
			diverged = ingestDivergedPerField
		}
		live = append(live, &checkpoint{run: "live", iter: slot + 1,
			fields: replica(refs[slot].fields, seed*41+int64(i), diverged)})
	}
	w := &workload{
		name: "ingest", clients: 1, seeded: refs, live: live, warm: 4, rssJobs: 50, traceJobs: 48,
		next: func(_, k int) job {
			i := k % len(live)
			c := live[i]
			return job{Kind: "compare", A: refs[c.iter-1].name(), B: c.name(), capture: c, tag: fmt.Sprintf("@%d", i)}
		},
		params: map[string]any{"slots": ingestSlots, "false_positive_chunks_per_field": falsePositivesPerField,
			"diverged_chunks_per_field": ingestDivergedPerField, "diverged_perturb": divergedChunk(0)},
	}
	return w.finish()
}

// shuffledOrders returns n seeded permutations of [0, size).
func shuffledOrders(seed int64, n, size int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		out[i] = rng.Perm(size)
	}
	return out
}

// finish fills the shared fields: run IDs, the checkpoint index, the
// common job knobs, and the oracle's answer for every distinct job.
func (w *workload) finish() *workload {
	w.byName = make(map[string]*checkpoint)
	ids := map[string]bool{}
	for _, c := range append(append([]*checkpoint(nil), w.seeded...), w.live...) {
		ids[c.run] = true
	}
	for id := range ids {
		w.runIDs = append(w.runIDs, id)
	}
	sort.Strings(w.runIDs)
	for _, c := range w.seeded {
		w.byName[c.name()] = c
	}
	w.params["fields"] = numFields
	w.params["field_elems"] = fieldElems
	w.params["chunk_bytes"] = chunkSize
	w.params["epsilon"] = epsilon
	w.params["clients"] = w.clients
	w.params["rss_jobs"] = w.rssJobs
	w.params["trace_jobs"] = w.traceJobs
	w.expect = make(map[string]expectation)
	inner := w.next
	w.next = func(c, k int) job {
		j := inner(c, k)
		j.Epsilon, j.ChunkSize = epsilon, chunkSize
		return j
	}
	// The distinct jobs are exactly those of each client's first cycle
	// (the streams are periodic with period <= 64 cycles of the mix).
	for c := 0; c < w.clients; c++ {
		for k := 0; k < 256; k++ {
			j := w.next(c, k)
			if _, ok := w.expect[j.key()]; ok {
				continue
			}
			w.expect[j.key()] = w.oracle(j)
		}
	}
	return w
}

// lookup returns the in-memory bytes behind a checkpoint name as the job
// will see it (for ingest, the live capture the job carries).
func (w *workload) lookup(j job, name string) *checkpoint {
	if j.capture != nil && j.capture.name() == name {
		return j.capture
	}
	return w.byName[name]
}

// oracle answers a job by brute force over the generated bytes, without
// the program's code: an element diverges when |float64(a) − float64(b)|
// > ε, and a group's count sums its star pairs.
func (w *workload) oracle(j job) expectation {
	var n int64
	for _, p := range j.pairs() {
		a, b := w.lookup(j, p[0]), w.lookup(j, p[1])
		for f := range a.fields {
			n += exceeding(a.fields[f], b.fields[f])
		}
	}
	e := expectation{diffCount: n}
	if n > 0 {
		e.exit = 2
	}
	return e
}

func exceeding(a, b []byte) int64 {
	var n int64
	for i := 0; i+4 <= len(a); i += 4 {
		x := float64(math.Float32frombits(binary.LittleEndian.Uint32(a[i:])))
		y := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		//lint:ignore floatcmp the oracle applies the ε definition directly, independent of errbound
		if math.Abs(x-y) > epsilon {
			n++
		}
	}
	return n
}
