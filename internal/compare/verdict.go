package compare

// Outcome is what a finished comparison proved, as two bits. It is the
// one verdict rule: session stats, job verdicts, the journal's verdict
// record and reprocmp's exit codes all read these bits instead of raw
// Result fields.
type Outcome struct {
	// Diverged: an out-of-bound difference was proven. A DiffCount of -1
	// (the boolean baselines' "diverged, count unknown") counts.
	Diverged bool
	// Degraded: some candidate chunk was unread or unverified, so an
	// absence of divergence is inconclusive.
	Degraded bool
}

// Outcome applies the verdict rule to one pair comparison.
func (r *Result) Outcome() Outcome {
	return Outcome{Diverged: r.DiffCount != 0, Degraded: r.Degraded || r.UnverifiedChunks > 0}
}

// Outcome folds the verdict rule over every pair of the group.
func (g *GroupReport) Outcome() Outcome {
	var o Outcome
	for i := range g.Pairs {
		o = o.or(g.Pairs[i].Result.Outcome())
	}
	return o
}

// Outcome folds the verdict rule over every aligned checkpoint pair.
func (h *HistoryReport) Outcome() Outcome {
	var o Outcome
	for i := range h.Pairs {
		o = o.or(h.Pairs[i].Result.Outcome())
	}
	return o
}

func (o Outcome) or(p Outcome) Outcome {
	return Outcome{Diverged: o.Diverged || p.Diverged, Degraded: o.Degraded || p.Degraded}
}

// Verdict is a comparison's final answer on the reprocmp exit-code
// contract: the numeric values are the CLI exit codes, so the daemon and
// the CLI speak one language.
type Verdict int

// Verdicts, by exit code.
const (
	// VerdictClean: the runs match within ε on a fully verified path.
	VerdictClean Verdict = 0
	// VerdictError: the comparison itself failed.
	VerdictError Verdict = 1
	// VerdictDivergent: out-of-bound differences were proven.
	VerdictDivergent Verdict = 2
	// VerdictDegraded: no proven divergence, but parts of the
	// comparison were unread or unverified — inconclusive.
	VerdictDegraded Verdict = 3
)

// VerdictOf folds an outcome into its verdict. An error is
// VerdictError; otherwise a proven divergence wins over degradation,
// because a divergence is conclusive even on a degraded path.
func VerdictOf(o Outcome, err error) Verdict {
	switch {
	case err != nil:
		return VerdictError
	case o.Diverged:
		return VerdictDivergent
	case o.Degraded:
		return VerdictDegraded
	default:
		return VerdictClean
	}
}

// String returns the verdict's wire name.
func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictError:
		return "error"
	case VerdictDivergent:
		return "divergent"
	case VerdictDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// ExitCode returns the reprocmp-contract exit code.
func (v Verdict) ExitCode() int { return int(v) }
