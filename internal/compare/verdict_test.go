package compare

import (
	"errors"
	"testing"
)

// TestVerdictRule pins the one verdict rule: the outcome bits of a
// Result, and of a GroupReport and a HistoryReport holding it as their
// only pair, and their fold into the exit-code verdict.
func TestVerdictRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  Result
		err  error
		want Outcome
		v    Verdict
	}{
		{"clean", Result{}, nil, Outcome{}, VerdictClean},
		{"diverged", Result{DiffCount: 3}, nil, Outcome{Diverged: true}, VerdictDivergent},
		{"trees-only diverged", Result{DiffCount: -1}, nil, Outcome{Diverged: true}, VerdictDivergent},
		{"degraded flag", Result{Degraded: true}, nil, Outcome{Degraded: true}, VerdictDegraded},
		{"unverified without flag", Result{UnverifiedChunks: 2}, nil, Outcome{Degraded: true}, VerdictDegraded},
		{"divergent and degraded", Result{DiffCount: 5, Degraded: true, UnverifiedChunks: 1}, nil,
			Outcome{Diverged: true, Degraded: true}, VerdictDivergent},
		{"error", Result{DiffCount: 5, Degraded: true}, errors.New("boom"),
			Outcome{Diverged: true, Degraded: true}, VerdictError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.res
			group := &GroupReport{Pairs: []GroupPairReport{{Result: &res}}}
			history := &HistoryReport{Pairs: []PairReport{{Result: &res}}}
			for kind, got := range map[string]Outcome{
				"result": res.Outcome(), "group": group.Outcome(), "history": history.Outcome(),
			} {
				if got != tc.want {
					t.Errorf("%s outcome = %+v, want %+v", kind, got, tc.want)
				}
				if v := VerdictOf(got, tc.err); v != tc.v {
					t.Errorf("%s verdict = %v, want %v", kind, v, tc.v)
				}
			}
			if res.Identical() != (tc.want == Outcome{}) {
				t.Errorf("Identical() = %v for outcome %+v", res.Identical(), tc.want)
			}
			if group.Degraded() != tc.want.Degraded || history.Degraded() != tc.want.Degraded {
				t.Errorf("Degraded() group=%v history=%v, want %v", group.Degraded(), history.Degraded(), tc.want.Degraded)
			}
		})
	}
}

// TestVerdictFoldAcrossPairs: a group is divergent if any pair is, and
// degraded if any pair is, even when the two bits come from different
// pairs.
func TestVerdictFoldAcrossPairs(t *testing.T) {
	g := &GroupReport{Pairs: []GroupPairReport{
		{Result: &Result{}},
		{Result: &Result{UnverifiedChunks: 1}},
		{Result: &Result{DiffCount: 2}},
	}}
	if got, want := g.Outcome(), (Outcome{Diverged: true, Degraded: true}); got != want {
		t.Fatalf("group outcome = %+v, want %+v", got, want)
	}
	if v := VerdictOf(g.Outcome(), nil); v != VerdictDivergent || v.ExitCode() != 2 || v.String() != "divergent" {
		t.Errorf("verdict = %v (exit %d), want divergent (exit 2)", v, v.ExitCode())
	}
	if (&GroupReport{}).Outcome() != (Outcome{}) {
		t.Error("an empty group must be clean")
	}
}

func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		name    string
		want    Topology
		wantErr bool
	}{
		{"", TopologyStar, false},
		{"star", TopologyStar, false},
		{"all-pairs", TopologyAllPairs, false},
		{"ring", 0, true},
		{"Star", 0, true},
	} {
		got, err := ParseTopology(tc.name)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v, error %v", tc.name, got, err, tc.want, tc.wantErr)
		}
		if err == nil && tc.name != "" && got.String() != tc.name {
			t.Errorf("ParseTopology(%q).String() = %q, want a round trip", tc.name, got.String())
		}
	}
}
