package shard

import (
	"context"

	"repro/internal/compare"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pfs"
)

// The sharded planners are compare's Merkle front end with this package's
// executor as stage 2: stage 1 (open, metadata once per member, tree diff
// per pair) runs on the coordinator exactly as in the single-node paths —
// same gates, same pruned BFS, same pricing — so they diverge only at
// partition/execute, and the verdicts they fold back are bit-identical to
// the single-node ones.

// Compare runs the two-stage Merkle comparison of one checkpoint pair
// sharded across cfg.Workers simulated workers: a star GroupCompare of the
// two members that returns its one pair's Result. Stage 1 runs on the
// coordinator only, divergent subtrees become self-describing work units,
// and stage 2 executes on the workers under the budget/stealing regime.
// The Result is bit-identical — diffs, verdicts, chunk accounting — to
// CompareMerkle over the same inputs; Stats reports the scale-out
// execution itself.
func Compare(ctx context.Context, store *pfs.Store, nameA, nameB string, cfg Config, opts compare.Options) (*compare.Result, *Stats, error) {
	rep, stats, err := groupCompare(ctx, store, nameA, []string{nameB}, compare.TopologyStar, cfg, opts, "merkle-shard", "open-checkpoints")
	if err != nil {
		return nil, nil, err
	}
	res := rep.Pairs[0].Result
	res.BytesRead = rep.BytesRead
	res.Breakdown = rep.Breakdown
	res.Steps = rep.Steps
	res.ReadRetries = rep.ReadRetries
	return res, stats, nil
}

// GroupCompare compares N runs' checkpoints as one sharded group: member
// metadata loads once, every topology pair's tree diff runs from the
// in-memory trees, and the union of all pairs' divergent subtrees is
// executed across cfg.Workers workers under the budget/stealing regime,
// so the fleet load-balances across pairs as well as within them.
// Member 0 is the baseline. The per-pair Results are bit-identical —
// diffs, verdicts, chunk accounting — to compare.GroupCompare over the
// same inputs; Stats reports the scale-out execution itself.
func GroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology compare.Topology, cfg Config, opts compare.Options) (*compare.GroupReport, *Stats, error) {
	return groupCompare(ctx, store, baseline, runs, topology, cfg, opts, "merkle-shard-group", "open-members")
}

func groupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology compare.Topology, cfg Config, opts compare.Options, method, openLabel string) (*compare.GroupReport, *Stats, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, nil, err
	}
	cfg, err = cfg.normalized(opts)
	if err != nil {
		return nil, nil, err
	}
	r := newRun(store, cfg, opts)
	rep, err := compare.RunSharded(ctx, store, baseline, runs, topology, opts, method, openLabel, r.partition, r.executeStep)
	if err != nil {
		return nil, nil, err
	}
	// Return a copy: a pointer into r would pin the whole run — units,
	// frames, workers and their buffers — for as long as the caller keeps
	// the Stats (the service plane keeps every job's).
	stats := r.stats
	return rep, &stats, nil
}

// partition pools every pair's divergent subtrees into one unit list —
// the global chunk key space concatenates (pair, field) extents in
// topology order, every selected field contributing its full chunk count
// (that is what makes AssignBlock a faithful owner-computes baseline) —
// and runs the initial assignment over it. Offsets come from each pair's
// own member files, so a unit is self-describing no matter which worker
// ends up streaming it.
func (r *run) partition(ctx context.Context, x *engine.Exec, f *compare.Front) error {
	pairs := f.Pairs()
	r.files = make([]pairFiles, len(pairs))
	for pi, pr := range pairs {
		ra, ma := f.Member(pr.A)
		rb, mb := f.Member(pr.B)
		r.files[pi] = pairFiles{fA: ra.File(), fB: rb.File()}
		for fi, fm := range ma.Fields {
			chunks, selected := f.Candidates(pi, fi)
			if !selected {
				continue
			}
			r.addUnits(pi, fi, fm, mb.Fields[fi].Tree, chunks, ra.FieldFileOffset(fi), rb.FieldFileOffset(fi))
			r.totalChunks += int64(fm.Tree.NumChunks())
		}
	}
	r.assign()
	return nil
}

// executeStep fans the units out over the workers, folds their verdicts
// into the front end, and charges the resulting makespan — the sharded
// analogue of the overlapped stage-2 pipeline time.
func (r *run) executeStep(ctx context.Context, x *engine.Exec, f *compare.Front) error {
	sw := metrics.NewStopwatch()
	if err := r.execute(ctx, f); err != nil {
		return err
	}
	f.Charge(x, sw.Lap(), r.stats.MakespanVirtual, r.bytesRead, int(r.retries))
	return nil
}
