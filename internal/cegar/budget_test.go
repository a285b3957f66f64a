package cegar

import (
	"context"
	"strings"
	"testing"

	"cpsrisk/internal/budget"
)

// cancellingOracle cancels the shared context after n checks, simulating
// the deadline firing mid-validation.
type cancellingOracle struct {
	inner  Oracle
	cancel context.CancelFunc
	left   int
}

func (o *cancellingOracle) Check(f Finding) (Verdict, error) {
	v, err := o.inner.Check(f)
	o.left--
	if o.left == 0 {
		o.cancel()
	}
	return v, err
}

func TestRunBudgetExhaustionRoutesRestToUndetermined(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bud := budget.New(ctx, budget.Limits{})
	oracle := &cancellingOracle{inner: NewPlantOracle(), cancel: cancel, left: 2}

	res, err := RunParallel(levels(t), oracle, -1, bud, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two findings validated; everything after the cancellation must be
	// routed to expert review rather than dropped.
	und := res.Undetermined()
	if len(und) == 0 {
		t.Fatal("no findings routed to expert review after exhaustion")
	}
	validated := len(res.Findings) - len(und)
	if validated != 2 {
		t.Errorf("validated = %d, want 2", validated)
	}
	found := false
	for _, tr := range res.Truncations {
		if strings.HasSuffix(tr.Stage, "/validate") && tr.Reason == budget.ReasonCancelled {
			found = true
			if !strings.Contains(tr.Detail, "2 findings validated") {
				t.Errorf("detail = %q", tr.Detail)
			}
		}
	}
	if !found {
		t.Errorf("no validate truncation recorded: %+v", res.Truncations)
	}
	// Exhaustion stops refinement: only the first level runs.
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

func TestRunBudgetScenarioCapRecordsAnalysisTruncation(t *testing.T) {
	bud := budget.New(context.Background(), budget.Limits{MaxScenarios: 3})
	res, err := RunParallel(levels(t), NewPlantOracle(), -1, bud, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range res.Truncations {
		if strings.Contains(tr.Stage, "cegar/") && tr.Reason == budget.ReasonScenarios {
			found = true
		}
	}
	if !found {
		t.Errorf("no analysis truncation recorded: %+v", res.Truncations)
	}
}

// An unlimited budget must behave exactly like no budget at all.
func TestRunBudgetNilBudgetMatchesRun(t *testing.T) {
	want, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	unlimited := budget.New(context.Background(), budget.Limits{})
	got, err := RunParallel(levels(t), NewPlantOracle(), -1, unlimited, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Findings) != len(want.Findings) || got.Iterations != want.Iterations {
		t.Errorf("budgeted run diverged: %d/%d findings, %d/%d iterations",
			len(got.Findings), len(want.Findings), got.Iterations, want.Iterations)
	}
	if len(got.Truncations) != 0 {
		t.Errorf("truncations = %+v", got.Truncations)
	}
}
