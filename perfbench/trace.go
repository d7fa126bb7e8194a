package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/wal"
)

// Journals of the two in-process passes, beside the daemon's own.
const (
	untracedJournal = "wal/inproc-untraced.log"
	tracedJournal   = "wal/inproc-traced.log"
)

// layerTimes are one job's outside calls into the layer functions.
type layerTimes struct {
	opens, loads []time.Duration
	diff         time.Duration
	nodes        int64
	metaBytes    int64
	cmp          time.Duration
	cmpBytes     int64
}

// traced is the -trace 1 run. One set-up, then the same fixed job
// sequence three times, one job in flight at a time so every counter is
// attributable to its job: through the daemon, through an untraced
// in-process plane, and through a traced in-process plane whose jobs
// carry the timing wrappers, each traced job followed by outside calls
// into the layer functions it exercised.
func (b *bench) traced() (map[string]metric, error) {
	in, _, err := b.setup(0)
	if err != nil {
		return nil, err
	}
	n := b.w.traceJobs
	nth := func(i int) (int, job) { c := i % b.w.clients; return c, b.w.next(c, i/b.w.clients) }

	viaDaemon := make([]outcome, n)
	for i := range viaDaemon {
		c, _ := nth(i)
		//lint:ignore detflow only the job request is encoded; the timings stay in the outcome
		viaDaemon[i] = b.viaDaemon(in, c, i/b.w.clients)
	}
	if err := in.d.stop(); err != nil {
		return nil, err
	}

	// meas is the handle the outside layer calls read through, so their
	// reads never count against a job's own.
	meas, err := pfs.NewStore(in.dir, pfs.LustreModel())
	if err != nil {
		return nil, err
	}
	up, err := openInproc(in.dir, untracedJournal, b.w, b.version)
	if err != nil {
		return nil, err
	}
	tp, err := openInproc(in.dir, tracedJournal, b.w, b.version)
	if err != nil {
		_ = up.plane.Close()
		return nil, err
	}
	closeAll := func() error {
		uerr := up.plane.Close()
		if terr := tp.plane.Close(); terr != nil {
			return terr
		}
		return uerr
	}
	// Each job runs on both planes back to back, in alternating order, so
	// warm caches and drifts of the machine fall on both passes alike.
	untraced, traced := make([]outcome, n), make([]outcome, n)
	for i := 0; i < n; i++ {
		c, j := nth(i)
		var cs *capStat
		if j.capture != nil {
			if cs, err = b.capture(in.store, j.capture); err != nil {
				_ = closeAll()
				return nil, err
			}
		}
		tr := &jobTrace{seq: i, t0: tp.t0}
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				untraced[i] = b.inprocJob(up, i, c, j, cs, nil)
				continue
			}
			traced[i] = b.inprocJob(tp, i, c, j, cs, tr)
			if traced[i].err != nil {
				continue
			}
			if traced[i].layer, err = b.layerCalls(tp, meas, j, tr); err != nil {
				_ = closeAll()
				return nil, err
			}
		}
	}
	peak := tp.plane.PeakInFlight()
	var rejected int64
	for _, t := range tp.plane.AdmissionMetrics() {
		rejected += t.Rejected
	}
	hashRate, buildMs, err := b.captureKernels(tp)
	if cerr := closeAll(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// The traced path must be the production path: same verdicts, same
	// diff counts, same storage read operations, job by job.
	for i := range traced {
		t, u := traced[i], untraced[i]
		if t.err != nil || u.err != nil {
			continue // already booked
		}
		if t.exit != u.exit || t.diffCount != u.diffCount || t.readOps != u.readOps {
			b.fail("traced job %d (%s) diverged from the untraced pass: exit %d/%d diffCount %d/%d read ops %d/%d",
				i, t.job.key(), t.exit, u.exit, t.diffCount, u.diffCount, t.readOps, u.readOps)
		}
	}

	wm, err := b.walMetrics(in.dir, n)
	if err != nil {
		return nil, err
	}
	//lint:ignore detflow spans are wall-clock timings by design
	if err := b.writeSpans(traced); err != nil {
		return nil, err
	}
	m := b.ledger(viaDaemon, untraced, traced, wm)
	m["service.peak_in_flight"] = metric{float64(peak), "count"}
	m["service.rejected"] = metric{float64(rejected), "count"}
	m["errbound.hash_mb_per_s"] = metric{hashRate, "MB/s"}
	m["compare.build_metadata_ms"] = metric{buildMs, "ms"}
	return m, nil
}

// inprocJob runs job j (sequence number i, client c) on an in-process
// plane and checks its verdict; cs is the capture that preceded it.
func (b *bench) inprocJob(ip *inproc, i, c int, j job, cs *capStat, tr *jobTrace) outcome {
	o, err := ip.run(c, j, tr)
	o.seq, o.client, o.job, o.cap, o.err, o.trace = i, c, j, cs, err, tr
	b.check(&o)
	return o
}

// layerCalls times, from outside, the layer functions job j exercised:
// opening and loading the metadata of every checkpoint it touches, the
// tree diff of every pair, and the ε-compare kernel over every candidate
// chunk's bytes.
func (b *bench) layerCalls(ip *inproc, meas *pfs.Store, j job, tr *jobTrace) (*layerTimes, error) {
	ctx := context.Background()
	lt := &layerTimes{}
	metas := map[string]*compare.Metadata{}
	for _, name := range j.names() {
		start := time.Now()
		r, _, err := ckpt.OpenReader(meas, name)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		if err := r.Close(); err != nil {
			return nil, err
		}
		lt.opens = append(lt.opens, end.Sub(start))
		tr.span("ckpt.open", start, end)
		start = time.Now()
		m, _, _, err := compare.LoadMetadata(ctx, meas, name)
		if err != nil {
			return nil, err
		}
		end = time.Now()
		lt.loads = append(lt.loads, end.Sub(start))
		tr.span("compare.load_metadata", start, end)
		lt.metaBytes += m.Bytes()
		metas[name] = m
	}
	hasher, err := errbound.NewHasher(errbound.Float32, epsilon)
	if err != nil {
		return nil, err
	}
	exec := ip.plane.Executor()
	var scratch []int64
	for _, p := range j.pairs() {
		ma, mb := metas[p[0]], metas[p[1]]
		ca, cb := b.w.lookup(j, p[0]), b.w.lookup(j, p[1])
		for fi := range ma.Fields {
			ta, tb := ma.Fields[fi].Tree, mb.Fields[fi].Tree
			start := time.Now()
			chunks, nodes, err := merkle.Diff(ta, tb, ta.DefaultStartLevel(exec.Workers()), exec)
			if err != nil {
				return nil, err
			}
			end := time.Now()
			lt.diff += end.Sub(start)
			lt.nodes += nodes
			tr.span("merkle.diff", start, end)
			start = time.Now()
			for _, ci := range chunks {
				off, n := ta.ChunkRange(ci)
				scratch, _, err = hasher.CompareSlices(scratch[:0], ca.fields[fi][off:off+int64(n)], cb.fields[fi][off:off+int64(n)])
				if err != nil {
					return nil, err
				}
				lt.cmpBytes += 2 * int64(n)
			}
			end = time.Now()
			lt.cmp += end.Sub(start)
			if len(chunks) > 0 {
				tr.span("errbound.compare", start, end)
			}
		}
	}
	return lt, nil
}

// captureKernels times the capture-side kernels from outside on the
// workload's checkpoints: errbound HashChunk over every chunk, and the
// in-memory metadata build compare.Build with the plane's options.
func (b *bench) captureKernels(ip *inproc) (hashMBps, buildMs float64, err error) {
	hasher, err := errbound.NewHasher(errbound.Float32, epsilon)
	if err != nil {
		return 0, 0, err
	}
	opts, err := ip.plane.NormalizeOptions(compare.Options{Epsilon: epsilon, ChunkSize: chunkSize})
	if err != nil {
		return 0, 0, err
	}
	cks := b.w.seeded
	if b.w.live != nil {
		cks = b.w.live
	}
	var rates, builds []float64
	for _, c := range cks {
		start := time.Now()
		for _, f := range c.fields {
			for off := 0; off < len(f); off += chunkSize {
				if _, err := hasher.HashChunk(f[off:min(off+chunkSize, len(f))]); err != nil {
					return 0, 0, err
				}
			}
		}
		rates = append(rates, float64(c.bytes())/1e6/time.Since(start).Seconds())
		start = time.Now()
		if _, _, err := compare.Build(c.meta().Fields, c.fields, opts); err != nil {
			return 0, 0, err
		}
		builds = append(builds, ms(time.Since(start)))
	}
	return quantile(rates, 0.5), quantile(builds, 0.5), nil
}

// walStats are the journal figures, taken after exactly n traced jobs.
type walStats struct {
	appends  []float64 // µs per Append, replayed
	records  int
	bytes    int64
	replayMs float64
}

// walMetrics opens the traced pass's journal (the replay time), then
// appends its records, in order, to a fresh journal, timing each Append.
func (b *bench) walMetrics(dir string, n int) (*walStats, error) {
	ctx := context.Background()
	store, err := pfs.NewStore(dir, pfs.LustreModel())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	j, rep, err := wal.Open(ctx, store, tracedJournal)
	if err != nil {
		return nil, err
	}
	ws := &walStats{replayMs: ms(time.Since(start)), records: len(rep.Records), bytes: j.Size()}
	fresh, err := pfs.NewStore(filepath.Join(b.work, "walreplay"), pfs.LustreModel())
	if err != nil {
		return nil, err
	}
	out, _, err := wal.Open(ctx, fresh, journalName)
	if err != nil {
		return nil, err
	}
	for _, rec := range rep.Records {
		// The journal assigns the chain coordinates; a replayed record
		// enters with them cleared.
		//lint:ignore walchain clearing the decoded chain fields so Append re-derives them
		rec.Seq, rec.Prev, rec.Digest = 0, murmur3.Digest{}, murmur3.Digest{}
		t := time.Now()
		if _, err := out.Append(rec); err != nil {
			return nil, err
		}
		ws.appends = append(ws.appends, us(time.Since(t)))
	}
	if len(rep.Records) == 0 || n == 0 {
		return nil, fmt.Errorf("traced journal holds %d records for %d jobs", len(rep.Records), n)
	}
	return ws, nil
}

// stage2Wall is the wall time of the job's stage-2 steps: the streamed
// verify of pair and group plans, the shard executor of shard plans.
func stage2Wall(steps metrics.StepSpans) time.Duration {
	var t time.Duration
	for _, s := range steps {
		if s.Kind == "stream-verify" || s.Kind == "shard-execute" {
			t += s.Span.Wall
		}
	}
	return t
}

// ledger turns the three passes into the per-layer metrics.
func (b *bench) ledger(viaDaemon, untraced, traced []outcome, ws *walStats) map[string]metric {
	var (
		dVerdict, uVerdict, tSubmit, tExec, opens, loads, diffs, writes []float64
		sumT, sumU, sumLedger                                           time.Duration
		readOps, readBytes, writeBytes, metaBytes, nodes                int64
		virtual, stage2, aioBusy, forBusy, cmpTime, overlapBase         time.Duration
		overlapWall                                                     time.Duration
		batches, reqs, aioOps, forCalls, cmpBytes, steals               int64
		cand, changed, total, jobs, shardJobs                           int
		makespan                                                        time.Duration
	)
	appendP50 := quantile(ws.appends, 0.5)
	for _, o := range viaDaemon {
		if o.err == nil {
			dVerdict = append(dVerdict, ms(o.verdict))
		}
	}
	for _, o := range untraced {
		if o.err == nil {
			uVerdict = append(uVerdict, ms(o.verdict))
			sumU += o.verdict
		}
	}
	for _, o := range traced {
		if o.err != nil || o.trace == nil {
			continue
		}
		jobs++
		tr, lt := o.trace, o.layer
		tSubmit = append(tSubmit, us(o.submit))
		tExec = append(tExec, ms(o.verdict))
		sumT += o.verdict
		readOps += o.readOps
		readBytes += o.readBytes
		if o.cap != nil {
			writeBytes += o.cap.written
		}
		for _, d := range lt.opens {
			opens = append(opens, us(d))
		}
		for _, d := range lt.loads {
			loads = append(loads, us(d))
		}
		diffs = append(diffs, us(lt.diff))
		nodes += lt.nodes
		metaBytes += lt.metaBytes
		cmpTime += lt.cmp
		cmpBytes += lt.cmpBytes
		batches += tr.batches
		reqs += tr.reqs
		aioOps += tr.aioOps
		aioBusy += tr.aioBusy
		forCalls += tr.forCalls
		forBusy += tr.forBusy
		virtual += tr.aioVirtual

		var steps metrics.StepSpans
		switch {
		case o.group != nil:
			steps = o.group.Steps
			virtual += o.group.Breakdown.Get(metrics.PhaseRead).Virtual
			for _, p := range o.group.Pairs {
				cand += p.Result.CandidateChunks
				changed += p.Result.ChangedChunks
				total += p.Result.TotalChunks
			}
		case o.res != nil:
			steps = o.res.Steps
			virtual += o.res.Breakdown.Get(metrics.PhaseRead).Virtual
			cand += o.res.CandidateChunks
			changed += o.res.ChangedChunks
			total += o.res.TotalChunks
		}
		if o.shard != nil {
			shardJobs++
			steals += o.shard.Steals
			makespan += o.shard.MakespanVirtual
		}
		s2 := stage2Wall(steps)
		stage2 += s2
		if tr.aioBusy+lt.cmp > 0 {
			overlapWall += s2
			overlapBase += tr.aioBusy + lt.cmp
		}
		var self time.Duration
		for _, d := range append(append([]time.Duration(nil), lt.opens...), lt.loads...) {
			self += d
		}
		// The accepted record is appended inside Submit; the started and
		// verdict records are the job's other two appends.
		self += o.submit + 2*time.Duration(appendP50*float64(time.Microsecond)) + lt.diff + s2
		sumLedger += self
	}
	for _, c := range b.captures {
		writes = append(writes, ms(c.write))
	}
	perJob := func(x float64) float64 { return x / float64(max(jobs, 1)) }
	ratio := func(a, b float64) float64 {
		//lint:ignore floatcmp an exactly zero denominator means "nothing measured", not a tolerance question
		if b == 0 {
			return 0
		}
		return a / b
	}
	journalPerJob := perJob(float64(ws.bytes))
	m := map[string]metric{
		"reprod.http_residue_ms":         {quantile(dVerdict, 0.5) - quantile(uVerdict, 0.5), "ms"},
		"service.submit_us":              {quantile(tSubmit, 0.5), "us"},
		"service.exec_ms":                {quantile(tExec, 0.5), "ms"},
		"wal.append_us":                  {appendP50, "us"},
		"wal.append_p95_us":              {quantile(ws.appends, 0.95), "us"},
		"wal.records_per_job":            {perJob(float64(ws.records)), "count"},
		"wal.bytes_per_job":              {journalPerJob, "B"},
		"wal.replay_ms":                  {ws.replayMs, "ms"},
		"pfs.read_ops_per_job":           {perJob(float64(readOps)), "count"},
		"pfs.read_bytes_per_job":         {perJob(float64(readBytes)), "B"},
		"pfs.write_bytes_per_job":        {perJob(float64(writeBytes)) + journalPerJob, "B"},
		"pfs.virtual_ms_per_job":         {perJob(ms(virtual)), "ms"},
		"ckpt.open_us":                   {quantile(opens, 0.5), "us"},
		"ckpt.write_ms":                  {quantile(writes, 0.5), "ms"},
		"compare.load_metadata_us":       {quantile(loads, 0.5), "us"},
		"compare.candidate_frac":         {ratio(float64(cand), float64(total)), "frac"},
		"compare.false_positive_frac":    {ratio(float64(cand-changed), float64(cand)), "frac"},
		"compare.metadata_bytes_per_job": {perJob(float64(metaBytes)), "B"},
		"merkle.diff_us":                 {quantile(diffs, 0.5), "us"},
		"merkle.nodes_per_job":           {perJob(float64(nodes)), "count"},
		"aio.batches_per_job":            {perJob(float64(batches)), "count"},
		"aio.reqs_per_batch":             {ratio(float64(reqs), float64(batches)), "count"},
		"aio.busy_ms_per_job":            {perJob(ms(aioBusy)), "ms"},
		"aio.coalesce_ratio":             {ratio(float64(aioOps), float64(reqs)), "frac"},
		"stream.verify_ms_per_job":       {perJob(ms(stage2)), "ms"},
		"stream.overlap_frac":            {1 - ratio(float64(overlapWall), float64(overlapBase)), "frac"},
		"errbound.compare_mb_per_s":      {ratio(float64(cmpBytes)/1e6, cmpTime.Seconds()), "MB/s"},
		"device.for_calls_per_job":       {perJob(float64(forCalls)), "count"},
		"device.busy_ms_per_job":         {perJob(ms(forBusy)), "ms"},
		"shard.steals_per_job":           {perJob(float64(steals)), "count"},
		"shard.makespan_virtual_ms":      {ratio(ms(makespan), float64(shardJobs)), "ms"},
		"ledger.residue_frac":            {ratio(float64(sumT-sumLedger), float64(sumT)), "frac"},
		"trace.overhead_frac":            {ratio(float64(sumT-sumU), float64(sumU)), "frac"},
	}
	if overlapBase == 0 {
		m["stream.overlap_frac"] = metric{0, "frac"}
	}
	return m
}

// writeSpans writes the traced pass's spans, one JSON object a line.
func (b *bench) writeSpans(traced []outcome) error {
	dir := filepath.Join(b.opt.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.opt.seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, o := range traced {
		if o.trace == nil {
			continue
		}
		for _, s := range o.trace.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// record is the measurement record every result carries: what was
// measured, on which code, with which toolchain and machine shape.
func (b *bench) record() (map[string]any, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"commit":        digest,
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"workload":      b.w.name,
		"seed":          b.opt.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       b.opt.seconds,
		"trace":         b.opt.trace,
		"params":        b.w.params,
		"reprod_flags":  daemonFlags,
		"setup_repeats": setupRepeats,
	}, nil
}

// writeRecord prints the record as one JSON line ahead of the result and
// keeps a copy under the output directory.
func (b *bench) writeRecord(rec map[string]any) error {
	raw, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	dir := filepath.Join(b.opt.out, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", b.w.name, b.opt.seed, b.opt.trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// sourceDigest identifies the code under test when no git metadata is
// available: a SHA-256 over the path and content of every Go source and
// module file of the checkout, build outputs excluded.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name()[0] == '.' || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext == ".go" || ext == ".mod" || ext == ".sh" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}
