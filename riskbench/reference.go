package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"

	"cpsrisk/internal/cegar"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/optimize"
	"cpsrisk/internal/risk"
)

// Independent correctness references. Each one recomputes a verdict of
// the pipeline by a slower, simpler route than the program takes, and
// reports every difference as a problem string (none = agreement).

// volatileFields are the top-level report fields that legitimately
// differ between two correct runs of the same input: wall clock
// (durationMs), effort statistics whose values depend on scheduling or
// cache state (sweep, solver), the artifact-cache resolution stamp, and
// the trace/metrics blocks of full reports. Everything else — model,
// candidates, ranked scenarios, plan, CEGAR verdicts, degradation — is
// the verdict and must match exactly.
var volatileFields = map[string]bool{
	"durationMs": true, "sweep": true, "solver": true,
	"artifact": true, "trace": true, "metrics": true,
}

// canonical digests a rendered JSON report (the two-space indented form
// core.Assessment.WriteJSON and the service both emit) without its
// volatile fields. It works line by line rather than decoding, so that
// checking a multi-megabyte report costs little next to producing it.
// Trailing commas are dropped, since a stripped last field moves them.
func canonical(report []byte) string {
	h := sha256.New()
	skipping := false
	for len(report) > 0 {
		var line []byte
		line, report, _ = bytes.Cut(report, []byte{'\n'})
		if skipping {
			skipping = !(bytes.HasPrefix(line, []byte("  }")) || bytes.HasPrefix(line, []byte("  ]")))
			continue
		}
		if key, ok := topLevelKey(line); ok && volatileFields[key] {
			open := bytes.TrimRight(line, ",")
			skipping = bytes.HasSuffix(open, []byte("{")) || bytes.HasSuffix(open, []byte("["))
			continue
		}
		h.Write(bytes.TrimRight(line, ","))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// topLevelKey returns the key of a line holding a top-level field.
func topLevelKey(line []byte) (string, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`  "`))
	if !ok {
		return "", false
	}
	key, _, ok := bytes.Cut(rest, []byte(`"`))
	return string(key), ok
}

// rowKey projects a ranked scenario row onto what the report shows.
type rowKey struct {
	ID, Scenario string
	Violated     []string
	Risk         risk.ScenarioRisk
}

func rows(rs []hazard.ScenarioResult) []rowKey {
	out := make([]rowKey, len(rs))
	for i, r := range rs {
		out[i] = rowKey{r.ID, r.Scenario.Key(), r.Violated, r.Risk}
	}
	return out
}

// compareRanking checks the program's ranked rows against a reference
// analysis (a sequential unpruned sweep, or the native path for an ASP
// run).
func compareRanking(got []hazard.ScenarioResult, ref *hazard.Analysis) []string {
	g, w := rows(got), rows(ref.Ranked())
	if len(g) != len(w) {
		return []string{fmt.Sprintf("ranking: %d rows, reference has %d", len(g), len(w))}
	}
	for i := range g {
		if !reflect.DeepEqual(g[i], w[i]) {
			return []string{fmt.Sprintf("ranking row %d: got %+v, reference %+v", i+1, g[i], w[i])}
		}
	}
	return nil
}

// bruteForcePlan finds the optimal selection by scoring every subset of
// the options with Problem.Evaluate, breaking ties as Optimal documents:
// cheaper first, then the lexicographically smaller selection.
func bruteForcePlan(p *optimize.Problem) (optimize.Plan, error) {
	n := len(p.Options)
	if n > 20 {
		return optimize.Plan{}, fmt.Errorf("brute force over %d options is too large", n)
	}
	var best optimize.Plan
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		sel := map[string]bool{}
		cost := 0
		for i, o := range p.Options {
			if mask&(1<<i) != 0 {
				sel[o.ID] = true
				cost += o.Cost
			}
		}
		if p.Budget >= 0 && cost > p.Budget {
			continue
		}
		plan := p.Evaluate(sel)
		if !found || plan.Total < best.Total ||
			(plan.Total == best.Total && (plan.Cost < best.Cost ||
				(plan.Cost == best.Cost && fmt.Sprint(plan.Selected) < fmt.Sprint(best.Selected)))) {
			best, found = plan, true
		}
	}
	if !found {
		return best, fmt.Errorf("no selection fits the budget")
	}
	return best, nil
}

// comparePlan checks the program's optimal plan against brute force.
func comparePlan(got optimize.Plan, p *optimize.Problem) []string {
	want, err := bruteForcePlan(p)
	if err != nil {
		return []string{"plan reference: " + err.Error()}
	}
	if got.Total != want.Total || got.Cost != want.Cost ||
		fmt.Sprint(got.Selected) != fmt.Sprint(want.Selected) ||
		fmt.Sprint(got.Blocked) != fmt.Sprint(want.Blocked) {
		return []string{fmt.Sprintf("plan: got %v total %d, brute force %v total %d",
			got.Selected, got.Total, want.Selected, want.Total)}
	}
	return nil
}

// compareVerdicts checks CEGAR verdicts against a reference loop run.
func compareVerdicts(got, ref *cegar.Result) []string {
	if got == nil {
		return []string{"verdicts: no refinement result"}
	}
	g, w := verdicts(got), verdicts(ref)
	if !reflect.DeepEqual(g, w) {
		return []string{fmt.Sprintf("verdicts: %d findings differ from the unscreened reference (%d)", len(g), len(w))}
	}
	return nil
}

func verdicts(r *cegar.Result) []string {
	out := make([]string, len(r.Findings))
	for i, j := range r.Findings {
		out[i] = j.Finding.String() + " " + j.Verdict.String()
	}
	return out
}

// planDefect checks the phased-plan contract: no mitigation is deployed
// twice across the phases, each is charged once, and the cumulative
// phase cost stays within the budget (when one is set). It returns the
// violations found ("" = none).
func planDefect(phases []optimize.Phase, budget int) string {
	seen := map[string]bool{}
	total := 0
	var msg bytes.Buffer
	for i, ph := range phases {
		if seen[ph.MitigationID] {
			fmt.Fprintf(&msg, "phase %d deploys %s again (charged twice); ", i+1, ph.MitigationID)
		}
		seen[ph.MitigationID] = true
		total += ph.Cost
	}
	if budget >= 0 && total > budget {
		fmt.Fprintf(&msg, "phases cost %d over budget %d; ", total, budget)
	}
	return msg.String()
}
