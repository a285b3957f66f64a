package hazard

import (
	"sort"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/risk"
)

// refSweep is the sequential scenario sweep the worker pipeline
// replaced, kept as the differential oracle for AnalyzeSweep: one loop
// over the enumeration stream, one EPA run and one requirement
// evaluation per scenario, the budget polled per scenario, and the
// completed-cardinality fallback on interruption. It scores rows with
// its own copy of the original scoring code, so it also checks the
// shared row builder. It has no cache, checkpoint, pruning, retry,
// fault sites or panic recovery.
func refSweep(eng *epa.Engine, muts []faults.Mutation, maxCard int, reqs []Requirement, bud *budget.Budget) (*Analysis, error) {
	if err := validateReqs(reqs); err != nil {
		return nil, err
	}
	start := time.Now()
	likelihoods := faults.LikelihoodIndex(muts)
	limits := bud.Limits()
	out := &Analysis{Requirements: reqs}

	var trunc *budget.Truncation
	var runErr error
	processed := 0
	faults.EnumerateStream(muts, maxCard, func(sc epa.Scenario) bool {
		if limits.MaxScenarios > 0 && processed >= limits.MaxScenarios {
			trunc = &budget.Truncation{Stage: "hazard", Reason: budget.ReasonScenarios}
			return false
		}
		if err := bud.Err("hazard"); err != nil {
			ex, _ := budget.Exhausted(err)
			trunc = &budget.Truncation{Stage: "hazard", Reason: ex.Reason}
			return false
		}
		res, err := eng.RunBudget(sc, bud)
		if err != nil {
			if ex, ok := budget.Exhausted(err); ok {
				trunc = &budget.Truncation{Stage: "hazard", Reason: ex.Reason}
				return false
			}
			runErr = err
			return false
		}
		out.Scenarios = append(out.Scenarios, refScoreResult(processed, sc, res, reqs, likelihoods))
		processed++
		return true
	})
	if runErr != nil {
		return nil, runErr
	}
	if trunc != nil {
		out.Truncation = trunc
		out.truncateToCompletedCardinality(muts, maxCard)
	}
	out.Sweep = &SweepStats{Workers: 1, Scenarios: len(out.Scenarios), Duration: time.Since(start)}
	return out, nil
}

// refScoreResult is the original one-pass row scoring: violated set and
// severities collected together in requirement order.
func refScoreResult(seq int, sc epa.Scenario, res *epa.Result, reqs []Requirement, likelihoods map[epa.Activation]qual.Level) ScenarioResult {
	sr := ScenarioResult{
		ID:       scenarioID(seq),
		Scenario: sc,
	}
	var severities []qual.Level
	for _, r := range reqs {
		if Eval(r.Condition, sc, res) {
			sr.Violated = append(sr.Violated, r.ID)
			severities = append(severities, r.Severity)
		}
	}
	sort.Strings(sr.Violated)
	sr.Risk = risk.ScoreScenario(risk.ScenarioInput{
		ID:                 sr.ID,
		FaultLikelihoods:   scenarioLikelihoods(sc, likelihoods),
		ViolatedSeverities: severities,
	})
	return sr
}
