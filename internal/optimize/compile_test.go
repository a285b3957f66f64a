package optimize

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/mitigation"
)

// Two sources of one activation blocked by the same mitigation: the
// bundle {A, A, B} is the set {A, B}, bought once for 20 within 25.
func TestMultiPhaseBundleIsASet(t *testing.T) {
	p := &Problem{
		Options: []Option{{ID: "A", Cost: 10}, {ID: "B", Cost: 10}},
		Scenarios: []mitigation.ScenarioLoss{
			{ID: "s", Loss: 100, Activations: [][][]string{{{"A"}, {"A"}, {"B"}}}},
		},
		Budget: 25,
	}
	phases, plan, err := p.MultiPhase()
	if err != nil {
		t.Fatal(err)
	}
	want := []Phase{{MitigationID: "A", Cost: 10, LossReduction: 100}, {MitigationID: "B", Cost: 10}}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("phases = %+v, want %+v", phases, want)
	}
	if strings.Join(plan.Selected, ",") != "A,B" || plan.Cost != 20 || plan.ResidualLoss != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestValidationRejectsTooManyOptions(t *testing.T) {
	p := &Problem{Budget: -1}
	for i := 0; i <= maxOptions; i++ {
		p.Options = append(p.Options, Option{ID: fmt.Sprintf("m%02d", i), Cost: 1})
	}
	_, err := p.Optimal()
	if err == nil || !strings.Contains(err.Error(), "65 options exceed the limit of 64") {
		t.Fatalf("Optimal: err = %v", err)
	}
	if _, _, err := p.MultiPhase(); err == nil {
		t.Fatal("MultiPhase: expected error")
	}
	if _, _, err := p.Solve(nil); err == nil {
		t.Fatal("Solve: expected error")
	}
	p.Options = p.Options[:maxOptions]
	if _, err := p.Optimal(); err != nil {
		t.Fatalf("64 options: %v", err)
	}
}

// randomProblem draws an instance exercising every shape the compiler
// folds: multi-activation and multi-source scenarios, activations shared
// across rows, unblockable sources, sourceless activations, blocker IDs
// that are not options, repeated blockers, zero costs and losses.
func randomProblem(rng *rand.Rand) *Problem {
	p := &Problem{}
	n := 1 + rng.Intn(12)
	for _, i := range rng.Perm(n) {
		// Mixed-length IDs make fmt.Sprint order differ from plain
		// lexicographic list order.
		id := fmt.Sprintf("M%d", i*7%13)
		if i%3 == 0 {
			id += "x"
		}
		p.Options = append(p.Options, Option{ID: id, Cost: rng.Intn(31)})
	}
	blocker := func() string {
		if rng.Intn(6) == 0 {
			return fmt.Sprintf("absent%d", rng.Intn(2))
		}
		return p.Options[rng.Intn(n)].ID
	}
	activation := func() [][]string {
		sources := make([][]string, rng.Intn(4))
		for j := range sources {
			if rng.Intn(8) == 0 {
				continue // unblockable source
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				sources[j] = append(sources[j], blocker())
			}
		}
		return sources
	}
	shared := make([][][]string, 1+rng.Intn(4))
	for i := range shared {
		shared[i] = activation()
	}
	for s := rng.Intn(16); s > 0; s-- {
		sl := mitigation.ScenarioLoss{ID: fmt.Sprintf("S%d", s), Loss: rng.Intn(101)}
		for a := rng.Intn(4); a > 0; a-- {
			if rng.Intn(3) == 0 {
				sl.Activations = append(sl.Activations, activation())
			} else {
				sl.Activations = append(sl.Activations, shared[rng.Intn(len(shared))])
			}
		}
		p.Scenarios = append(p.Scenarios, sl)
	}
	switch rng.Intn(3) {
	case 0:
		p.Budget = -1
	case 1:
		p.Budget = 0
	default:
		p.Budget = rng.Intn(101)
	}
	return p
}

// The compiled optimizer agrees with the map-based reference on plans and
// phases, deep-equal, over a seeded random battery.
func TestCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 600; i++ {
		p := randomProblem(rng)
		want, err := refOptimal(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Optimal()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("problem %d %+v:\nOptimal   %+v\nreference %+v", i, p, got, want)
		}
		wantPhases, wantFinal, err := refMultiPhase(p)
		if err != nil {
			t.Fatal(err)
		}
		gotPhases, gotFinal, err := p.MultiPhase()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPhases, wantPhases) || !reflect.DeepEqual(gotFinal, wantFinal) {
			t.Fatalf("problem %d %+v:\nMultiPhase %+v %+v\nreference  %+v %+v",
				i, p, gotPhases, gotFinal, wantPhases, wantFinal)
		}
		plan, phases, err := p.Solve(nil)
		if err != nil || !reflect.DeepEqual(plan, want) || !reflect.DeepEqual(phases, wantPhases) {
			t.Fatalf("problem %d: Solve = %+v %+v %v", i, plan, phases, err)
		}
	}
}

// hardProblem has 24 unit-cost options each blocking its own unit-loss
// scenario: every selection totals 24, so settling the Cost tie-break
// walks all 2^24 leaves.
func hardProblem() *Problem {
	p := &Problem{Budget: -1}
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("m%02d", i)
		p.Options = append(p.Options, Option{ID: id, Cost: 1})
		p.Scenarios = append(p.Scenarios, mitigation.ScenarioLoss{
			ID: "s" + id, Loss: 1, Activations: [][][]string{{{id}}},
		})
	}
	return p
}

func TestSolveHonoursDeadline(t *testing.T) {
	p := hardProblem()
	b, cancel := budget.WithTimeout(context.Background(), budget.Limits{Timeout: 5 * time.Millisecond})
	defer cancel()
	start := time.Now()
	plan, phases, err := p.Solve(b)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("Solve returned after %v, deadline 5ms", elapsed)
	}
	ex, ok := budget.Exhausted(err)
	if !ok || ex.Stage != "optimize" || ex.Reason != budget.ReasonDeadline {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(ex.Detail, "exact search stopped") {
		t.Errorf("detail = %q", ex.Detail)
	}
	if phases != nil {
		t.Errorf("phases after a cut exact search: %+v", phases)
	}
	// The incumbent is a real evaluation of a selection.
	sel := map[string]bool{}
	for _, id := range plan.Selected {
		sel[id] = true
	}
	if want := p.Evaluate(sel); !reflect.DeepEqual(plan, want) || plan.Total != 24 {
		t.Fatalf("incumbent %+v, evaluation %+v", plan, want)
	}
}
