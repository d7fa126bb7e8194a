// Command perfbench is the repository benchmark. It boots the real reprod
// daemon with -journal on loopback over a store it seeds through the
// public capture API, drives one closed-loop workload (triage, verify or
// ingest) against it, checks every verdict against a brute-force oracle,
// and prints the end-to-end metrics (-trace 0) or the per-layer ledger of
// a separate in-process traced pass (-trace 1). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload triage --seed 1 --seconds 10 --trace 0
//
// METRICS.json beside this file defines every metric, the workloads and
// the layer → end-to-end metric interaction table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/compare"
	"repro/internal/pfs"
	"repro/internal/shard"
)

// setupRepeats is how many complete set-ups one end-to-end run performs,
// each followed by its share of the timed window; setup_s is their
// median.
const setupRepeats = 3

// minLatencySamples is the fewest verdicts a timed window collects, so
// that p95 has at least ten samples beyond it.
const minLatencySamples = 200

// heldOutSeed is the seed no tuning used; a claimed gain must also hold
// on it.
const heldOutSeed = 9001

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	reprod   string
	out      string
}

// outcome is one job as a client saw it.
type outcome struct {
	seq, client int
	job         job
	submit      time.Duration // POST (or Session.Submit) to acceptance
	verdict     time.Duration // POST (or Session.Submit) to verdict
	exit        int
	diffCount   int64
	err         error
	cap         *capStat
	done        time.Duration // verdict arrival, since the window opened

	// In-process passes only.
	readOps, readBytes int64
	res                *compare.Result
	group              *compare.GroupReport
	shard              *shard.Stats
	trace              *jobTrace
	layer              *layerTimes
}

// capStat is one capture through the library: WriteCheckpoint plus
// BuildAndSave.
type capStat struct {
	total, write time.Duration
	bytes        int64 // checkpoint bytes captured
	written      int64 // bytes written: container plus metadata
}

type bench struct {
	opt     options
	w       *workload
	version string
	work    string

	mu        sync.Mutex
	attempted int
	failed    int
	captures  []capStat
	// detail is added to the measurement record: per-job latency
	// breakdowns and other context behind the metrics.
	detail map[string]any
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: triage, verify or ingest")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "timed window length in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics through reprod; 1: per-layer traced pass")
	flag.StringVar(&o.reprod, "reprod", "", "path of the reprod binary built from this checkout")
	flag.StringVar(&o.out, "out", "", "scratch directory for stores, logs, records and spans")
	flag.Parse()
	if o.reprod == "" || o.out == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench -reprod BIN -out DIR --workload W --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	//lint:ignore detflow the result is a measurement: wall-clock timings are its content
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) (*result, error) {
	w, err := generate(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{opt: o, w: w, version: fmt.Sprintf("synth-seed-%d", o.seed), work: filepath.Join(o.out, "work"),
		detail: map[string]any{}}
	if err := os.RemoveAll(b.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work) // stores are large; records and spans stay
	rec, err := b.record()
	if err != nil {
		return nil, err
	}
	var got map[string]metric
	if o.trace == 1 {
		got, err = b.traced()
	} else {
		got, err = b.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: got}
	b.mu.Unlock()
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no job attempted")
	}
	rec["result"] = res
	rec["detail"] = b.detail
	rec["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	//lint:ignore detflow the measurement record carries wall-clock timings by design
	if err := b.writeRecord(rec); err != nil {
		return nil, err
	}
	printSummary(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %d of %d jobs refused, failed or contradicted the oracle\n",
			res.Failed, res.Attempted)
	}
	return res, nil
}

// printSummary writes one human-readable line per metric, error_rate
// included, ahead of the result line.
func printSummary(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-34s %14.4f %s (%d of %d jobs)\n", "error_rate", float64(res.Failed)/float64(res.Attempted),
		"frac", res.Failed, res.Attempted)
}

// check books one finished job against the oracle.
func (b *bench) check(o *outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if o.err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): %v\n", o.seq, o.job.key(), o.err)
		return
	}
	want := b.w.expect[o.job.key()]
	if o.exit != want.exit || o.diffCount != want.diffCount {
		b.failed++
		o.err = fmt.Errorf("oracle mismatch: got exit %d diffCount %d, want exit %d diffCount %d",
			o.exit, o.diffCount, want.exit, want.diffCount)
		fmt.Fprintf(os.Stderr, "perfbench: ORACLE MISMATCH job %d (%s): %v\n", o.seq, o.job.key(), o.err)
	}
}

// fail books a failure that is not one job's verdict.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

func runBinding(id, version string) binding {
	return binding{RunID: id, CodeRef: "perfbench", Epsilon: epsilon, ChunkSize: chunkSize, DatasetVersion: version}
}

// capture writes one checkpoint and builds its metadata through the
// public capture API, into the store reprod serves.
func (b *bench) capture(store *pfs.Store, c *checkpoint) (*capStat, error) {
	start := time.Now()
	cost, err := repro.WriteCheckpoint(store, c.meta(), c.fields)
	if err != nil {
		return nil, fmt.Errorf("capture %s: %w", c.name(), err)
	}
	write := time.Since(start)
	m, _, err := repro.BuildAndSave(context.Background(), store, c.name(),
		repro.Options{Epsilon: epsilon, ChunkSize: chunkSize})
	if err != nil {
		return nil, fmt.Errorf("capture %s: %w", c.name(), err)
	}
	cs := &capStat{total: time.Since(start), write: write, bytes: c.bytes(), written: cost.Bytes + m.Bytes()}
	b.mu.Lock()
	b.captures = append(b.captures, *cs)
	b.mu.Unlock()
	return cs, nil
}

// takeCaptures returns the captures booked since the last call.
func (b *bench) takeCaptures() []capStat {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.captures
	b.captures = nil
	return c
}

// instance is one complete set-up: a seeded store and the daemon
// serving it.
type instance struct {
	dir   string
	store *pfs.Store // the capture-side handle on the store
	d     *daemon
}

// setup seeds a fresh store through capture, boots reprod on it, waits
// for /healthz, registers every run for every tenant and runs the
// warm-up jobs. The returned duration is setup_s's sample.
func (b *bench) setup(i int) (*instance, time.Duration, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("store%d", i))
	start := time.Now()
	store, err := pfs.NewStore(dir, pfs.LustreModel())
	if err != nil {
		return nil, 0, err
	}
	for _, c := range b.w.seeded {
		if _, err := b.capture(store, c); err != nil {
			return nil, 0, err
		}
	}
	d, err := bootDaemon(b.opt.reprod, dir, filepath.Join(b.work, fmt.Sprintf("reprod%d.log", i)))
	if err != nil {
		return nil, 0, err
	}
	in := &instance{dir: dir, store: store, d: d}
	for c := 0; c < b.w.clients; c++ {
		for _, id := range b.w.runIDs {
			if err := d.register(tenantOf(c), runBinding(id, b.version)); err != nil {
				_ = d.stop()
				return nil, 0, err
			}
		}
	}
	b.closedLoop(func(c, k int) bool { return k < b.w.warm }, func(c, k int) outcome {
		return b.viaDaemon(in, c, k)
	})
	return in, time.Since(start), nil
}

// viaDaemon runs client c's k-th job through reprod, capturing first on
// ingest.
func (b *bench) viaDaemon(in *instance, c, k int) outcome {
	j := b.w.next(c, k)
	o := outcome{seq: k*b.w.clients + c, client: c, job: j}
	if j.capture != nil {
		o.cap, o.err = b.capture(in.store, j.capture)
	}
	if o.err == nil {
		var r outcome
		r, o.err = in.d.run(tenantOf(c), j)
		o.submit, o.verdict, o.exit, o.diffCount = r.submit, r.verdict, r.exit, r.diffCount
	}
	b.check(&o)
	return o
}

// closedLoop runs one goroutine per client; client c runs jobs k = 0, 1,
// ... while more(c, k), each only after the previous verdict arrived.
func (b *bench) closedLoop(more func(c, k int) bool, do func(c, k int) outcome) []outcome {
	per := make([][]outcome, b.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; more(c, k); k++ {
				per[c] = append(per[c], do(c, k))
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, k int) bool { return all[i].seq < all[k].seq })
	return all
}

// endToEnd is the -trace 0 run: setupRepeats rounds of a complete
// set-up followed by a closed-loop window of --seconds/setupRepeats
// through that set-up's daemon. Spreading the window over independent
// daemon processes and moments of the run keeps one slow process or one
// slow stretch of the machine from setting a run's figures.
func (b *bench) endToEnd() (map[string]metric, error) {
	var (
		setups, rates, rsss         []float64
		outs                        []outcome
		setupCaptures, loopCaptures []capStat
		windows                     []map[string]any
	)
	window := time.Duration(b.opt.seconds) * time.Second / setupRepeats
	for i := 0; i < setupRepeats; i++ {
		in, dur, err := b.setup(i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
		setupCaptures = append(setupCaptures, b.takeCaptures()...)
		w, err := b.window(in, window)
		if err != nil {
			_ = in.d.kill()
			return nil, err
		}
		loopCaptures = append(loopCaptures, b.takeCaptures()...)
		if err := in.d.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(in.dir); err != nil {
			return nil, err
		}
		outs = append(outs, w.outs...)
		rates = append(rates, float64(len(w.outs))/w.elapsed.Seconds())
		rsss = append(rsss, w.rss)
		windows = append(windows, map[string]any{"window_s": w.elapsed.Seconds(), "verdicts": len(w.outs),
			"verdicts_per_second": w.series, "peak_rss_mb_by_verdicts": w.traj})
	}

	var submit, verdict []float64
	byKey := map[string][]float64{}
	for _, o := range outs {
		if o.err == nil {
			submit = append(submit, ms(o.submit))
			verdict = append(verdict, ms(o.verdict))
			byKey[o.job.key()] = append(byKey[o.job.key()], ms(o.verdict))
		}
	}
	if len(verdict) < minLatencySamples {
		b.fail("windows delivered %d verdicts, fewer than the %d required", len(verdict), minLatencySamples)
	}
	perJob := map[string]any{}
	for k, v := range byKey {
		perJob[k] = map[string]float64{"n": float64(len(v)), "p50_ms": quantile(v, 0.5), "p95_ms": quantile(v, 0.95)}
	}
	caps := setupCaptures
	if b.w.live != nil {
		caps = loopCaptures
	}
	var capRates, capMs []float64
	for _, c := range caps {
		capRates = append(capRates, float64(c.bytes)/1e6/c.total.Seconds())
		capMs = append(capMs, ms(c.total))
	}
	b.detail["verdict_by_job"] = perJob
	b.detail["windows"] = windows
	b.detail["setup_samples_s"] = setups
	b.detail["capture_ms"] = capMs
	return map[string]metric{
		"jobs_per_s":       {quantile(rates, 0.50), "1/s"},
		"verdict_p50_ms":   {quantile(verdict, 0.50), "ms"},
		"verdict_p95_ms":   {quantile(verdict, 0.95), "ms"},
		"submit_p50_ms":    {quantile(submit, 0.50), "ms"},
		"capture_mb_per_s": {quantile(capRates, 0.50), "MB/s"},
		"daemon_rss_mb":    {quantile(rsss, 0.50), "MB"},
		"setup_s":          {quantile(setups, 0.50), "s"},
	}, nil
}

// windowResult is one timed closed-loop window through one daemon.
type windowResult struct {
	outs    []outcome
	elapsed time.Duration
	rss     float64
	series  []int        // verdicts in each second of the window
	traj    [][2]float64 // peak RSS every 50 verdicts
}

// window drives the workload through in's daemon for d, and on until
// the fixed verdict count rssJobs has been served and peak RSS read
// there, and until the window holds its share of the p95 samples.
func (b *bench) window(in *instance, d time.Duration) (*windowResult, error) {
	minJobs := int64(max(b.w.rssJobs, (minLatencySamples+setupRepeats-1)/setupRepeats))
	var served atomic.Int64
	var rssErr error
	w := &windowResult{}
	// The peak-RSS trajectory documents how daemon memory grows with
	// jobs served.
	var trajMu sync.Mutex
	start := time.Now()
	w.outs = b.closedLoop(func(c, k int) bool {
		if time.Since(start) > 150*time.Second {
			return false // a run must end; the missing samples fail it
		}
		return time.Since(start) < d || served.Load() < minJobs
	}, func(c, k int) outcome {
		o := b.viaDaemon(in, c, k)
		o.done = time.Since(start)
		n := served.Add(1)
		if n == int64(b.w.rssJobs) {
			w.rss, rssErr = in.d.peakRSSMB()
		}
		if n%50 == 0 {
			if r, err := in.d.peakRSSMB(); err == nil {
				trajMu.Lock()
				w.traj = append(w.traj, [2]float64{float64(n), r})
				trajMu.Unlock()
			}
		}
		return o
	})
	w.elapsed = time.Since(start)
	if rssErr != nil {
		return nil, rssErr
	}
	if served.Load() < minJobs {
		b.fail("window served %d verdicts, fewer than the %d required", served.Load(), minJobs)
	}
	w.series = make([]int, int(w.elapsed/time.Second)+1)
	for _, o := range w.outs {
		w.series[int(o.done/time.Second)]++
	}
	return w, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
