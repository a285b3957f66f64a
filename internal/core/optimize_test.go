package core

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/sysmodel"
)

// smePlantConfig is `riskassess -model models/sme-plant.json -types
// models/types.json -maxcard N -optimize`.
func smePlantConfig(t *testing.T, maxCard int) Config {
	t.Helper()
	tf, err := os.Open("../../models/types.json")
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	types, err := sysmodel.ReadTypesJSON(tf)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open("../../models/sme-plant.json")
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	m, err := sysmodel.ReadJSON(mf)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := hazard.GenericRequirements(m)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model: m, Types: types, KB: kb.MustDefaultKB(), Requirements: reqs,
		MutationSources: faults.AllSources(),
		MaxCardinality:  maxCard,
		Optimize:        true,
		Budget:          -1,
	}
}

// The staged plan deploys each mitigation once and pays exactly for the
// selection it ends with.
func TestSMEPlantPhasesDeployEachMitigationOnce(t *testing.T) {
	for _, maxCard := range []int{4, -1} {
		a, err := Run(smePlantConfig(t, maxCard))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		cost := 0
		var ids []string
		for _, ph := range a.Phases {
			if seen[ph.MitigationID] {
				t.Errorf("maxcard %d: %s deployed twice: %+v", maxCard, ph.MitigationID, a.Phases)
			}
			seen[ph.MitigationID] = true
			cost += ph.Cost
			ids = append(ids, ph.MitigationID)
		}
		if cost != a.Plan.Cost {
			t.Errorf("maxcard %d: phases cost %d, plan cost %d", maxCard, cost, a.Plan.Cost)
		}
		if maxCard == -1 {
			want := []string{"M-0951", "M-0801", "M-0917", "M-0949"}
			if len(ids) != len(want) {
				t.Fatalf("phases = %v, want %v", ids, want)
			}
			for i := range want {
				if ids[i] != want[i] {
					t.Fatalf("phases = %v, want %v", ids, want)
				}
			}
			if a.Plan.Total != 6101 {
				t.Errorf("plan total = %d, want 6101", a.Plan.Total)
			}
		}
	}
}

// The optimizer's work shows as two spans under the mitigation stage.
func TestRunSpanTreeHasOptimizerSpans(t *testing.T) {
	cfg := caseStudyConfig()
	cfg.Optimize = true
	cfg.Budget = -1
	cfg.Trace = obs.New("assessment")
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mit := a.Trace.Find("mitigation")
	if mit == nil {
		t.Fatal("no mitigation span")
	}
	for _, name := range []string{"optimize.exact", "optimize.phases"} {
		if mit.Find(name) == nil || a.Trace.Count(name) != 1 {
			t.Errorf("want exactly one %q span under mitigation:\n%s", name, a.Trace.Tree())
		}
	}
}

// onSpanStart runs f when the named span starts.
type onSpanStart struct {
	name string
	f    func()
}

func (h onSpanStart) SpanStart(s *obs.Span) {
	if s.Name() == h.name {
		h.f()
	}
}

func (onSpanStart) SpanEnd(*obs.Span) {}

// A cancellation or deadline that lands inside the exact search stops it:
// the run keeps the incumbent (here: buying nothing) and records the cut.
func TestRunCtxOptimizeCutKeepsIncumbent(t *testing.T) {
	for _, reason := range []string{budget.ReasonCancelled, budget.ReasonDeadline} {
		// The hook fires as the exact search starts: cancel there, or
		// wait there until the run's deadline has passed.
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		cut := cancel
		if reason == budget.ReasonDeadline {
			cut = func() { <-ctx.Done() }
		}
		cfg := caseStudyConfig()
		cfg.Optimize = true
		cfg.Budget = -1
		cfg.Trace = obs.New("assessment")
		cfg.Trace.AddHook(onSpanStart{name: "optimize.exact", f: cut})
		a, err := RunCtx(ctx, cfg)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		var tr *budget.Truncation
		for i := range a.Degradation.Truncations {
			if a.Degradation.Truncations[i].Stage == "optimize" {
				tr = &a.Degradation.Truncations[i]
			}
		}
		if tr == nil || len(a.Degradation.Truncations) != 1 {
			t.Fatalf("%s: want one optimize truncation: %s", reason, a.Degradation.Summary())
		}
		if tr.Reason != reason || tr.Span != "assessment/mitigation" ||
			!strings.Contains(tr.Detail, "exact search stopped") {
			t.Errorf("%s: truncation = %+v", reason, *tr)
		}
		if len(a.Plan.Selected) != 0 || a.Plan.Total != a.Plan.ResidualLoss || a.Plan.ResidualLoss == 0 {
			t.Errorf("%s: plan = %+v, want the buy-nothing incumbent", reason, a.Plan)
		}
		if a.Phases != nil {
			t.Errorf("%s: phases = %+v, want none", reason, a.Phases)
		}
	}
}
