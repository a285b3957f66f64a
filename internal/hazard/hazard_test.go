package hazard

import (
	"strings"
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/sysmodel"
)

// setup builds src -> guard -> sink where the guard masks value errors
// unless bypassed, plus requirements over the sink.
func setup(t testing.TB) (*epa.Engine, []faults.Mutation, []Requirement) {
	t.Helper()
	types := sysmodel.NewTypeLibrary()
	types.MustAdd(&sysmodel.ComponentType{
		Name: "node",
		Ports: []sysmodel.PortSpec{
			{Name: "in", Dir: sysmodel.In, Flow: sysmodel.SignalFlow},
			{Name: "out", Dir: sysmodel.Out, Flow: sysmodel.SignalFlow},
		},
		FaultModes: []sysmodel.FaultModeSpec{
			{Name: "corrupt", Likelihood: "M"},
			{Name: "bypass", Likelihood: "L"},
		},
	})
	m := sysmodel.NewModel("guarded-chain")
	for _, id := range []string{"src", "guard", "sink"} {
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "node"})
	}
	m.Connect("src", "out", "guard", "in", sysmodel.SignalFlow)
	m.Connect("guard", "out", "sink", "in", sysmodel.SignalFlow)

	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type: "node",
		Effects: []epa.FaultEffect{
			{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)},
		},
		Transfers: []epa.TransferRule{
			{From: "in", Match: epa.StateOf(epa.ErrValue), To: "out",
				Emit: epa.StateOf(epa.ErrValue), WhenFault: "bypass"},
		},
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates: only the interesting ones to keep the space small.
	muts := []faults.Mutation{
		{Activation: epa.Activation{Component: "src", Fault: "corrupt"},
			Likelihood: qual.Medium, Sources: []string{"fault_mode"}},
		{Activation: epa.Activation{Component: "guard", Fault: "bypass"},
			Likelihood: qual.Low, Sources: []string{"fault_mode"}},
		{Activation: epa.Activation{Component: "sink", Fault: "corrupt"},
			Likelihood: qual.VeryLow, Sources: []string{"fault_mode"}},
	}
	reqs := []Requirement{
		{ID: "R1", Description: "sink integrity", Severity: qual.High,
			Condition: Comp("sink", epa.ErrValue)},
		{ID: "R2", Description: "guard must not be bypassed while corrupt flows", Severity: qual.Medium,
			Condition: All(Fault("guard", "bypass"), Comp("guard", epa.ErrValue))},
	}
	return eng, muts, reqs
}

func TestAnalyzeExhaustive(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Scenarios) != 8 {
		t.Fatalf("scenarios = %d, want 8", len(a.Scenarios))
	}
	// The fault-free scenario is clean.
	if a.Scenarios[0].IsHazardous() || a.Scenarios[0].ID != "S1" {
		t.Errorf("S1 = %+v", a.Scenarios[0])
	}
	// sink corrupt alone violates R1 (its own output emits value errors).
	r, ok := a.ByScenario(epa.Scenario{{Component: "sink", Fault: "corrupt"}})
	if !ok || !r.Violates("R1") || r.Violates("R2") {
		t.Errorf("sink corrupt = %+v", r)
	}
	// src corrupt alone: guard masks -> no violation.
	r, ok = a.ByScenario(epa.Scenario{{Component: "src", Fault: "corrupt"}})
	if !ok || r.IsHazardous() {
		t.Errorf("src corrupt = %+v", r)
	}
	// src corrupt + guard bypass: R1 and R2 both violated.
	r, ok = a.ByScenario(epa.Scenario{
		{Component: "src", Fault: "corrupt"},
		{Component: "guard", Fault: "bypass"},
	})
	if !ok || !r.Violates("R1") || !r.Violates("R2") {
		t.Errorf("src+bypass = %+v", r)
	}
	if got := len(a.Hazards()); got != 5 {
		t.Errorf("hazard count = %d\n%s", got, a.Summary())
	}
}

func TestAnalyzeCardinalityBound(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, 1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Scenarios) != 4 { // empty + 3 singletons
		t.Fatalf("scenarios = %d", len(a.Scenarios))
	}
}

// The central cross-check: the ASP path and the native path produce the
// same scenario -> violation mapping over the whole space.
func TestASPAgreesWithNative(t *testing.T) {
	eng, muts, reqs := setup(t)
	native, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	asp, err := AnalyzeASPOpts(eng, muts, -1, reqs, ASPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(native.Scenarios) != len(asp.Scenarios) {
		t.Fatalf("scenario counts differ: native %d vs asp %d",
			len(native.Scenarios), len(asp.Scenarios))
	}
	for _, ns := range native.Scenarios {
		as, ok := asp.ByScenario(ns.Scenario)
		if !ok {
			t.Fatalf("ASP missing scenario %s", ns.Scenario)
		}
		if strings.Join(ns.Violated, ",") != strings.Join(as.Violated, ",") {
			t.Errorf("scenario %s: native %v vs asp %v",
				ns.Scenario, ns.Violated, as.Violated)
		}
	}
}

func TestRanked(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked := a.Ranked()
	if len(ranked) != len(a.Scenarios) {
		t.Fatal("ranking dropped scenarios")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Risk.Risk < ranked[i].Risk.Risk {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
	// The top scenario must be hazardous.
	if !ranked[0].IsHazardous() {
		t.Errorf("top ranked = %+v", ranked[0])
	}
}

func TestMinimalCuts(t *testing.T) {
	eng, muts, reqs := setup(t)
	a, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cuts := a.MinimalCuts("R1")
	// Minimal R1 violators: {sink corrupt} and {src corrupt, guard bypass}.
	if len(cuts) != 2 {
		var keys []string
		for _, c := range cuts {
			keys = append(keys, c.Scenario.Key())
		}
		t.Fatalf("minimal cuts = %v", keys)
	}
	for _, c := range cuts {
		switch c.Scenario.Key() {
		case "{sink:corrupt}", "{guard:bypass,src:corrupt}":
		default:
			t.Errorf("unexpected minimal cut %s", c.Scenario.Key())
		}
	}
}

func TestRequirementValidation(t *testing.T) {
	eng, muts, _ := setup(t)
	bad := [][]Requirement{
		{{ID: "", Condition: Comp("x", epa.ErrValue)}},
		{{ID: "R", Condition: nil}},
		{{ID: "R", Condition: Comp("x", epa.ErrValue)},
			{ID: "R", Condition: Comp("y", epa.ErrValue)}},
	}
	for i, reqs := range bad {
		if _, err := AnalyzeSweep(eng, muts, 0, reqs, SweepConfig{Parallelism: 1}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := AnalyzeASPOpts(eng, muts, 0, reqs, ASPOptions{}); err == nil {
			t.Errorf("case %d (asp): expected error", i)
		}
	}
}

func TestConditionEval(t *testing.T) {
	eng, _, _ := setup(t)
	sc := epa.Scenario{{Component: "src", Fault: "corrupt"}}
	res, err := eng.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		cond Condition
		want bool
	}{
		{Comp("src", epa.ErrValue), true},
		{Comp("sink", epa.ErrValue), false},
		{Port("guard", "in", epa.ErrValue), true},
		{Port("guard", "out", epa.ErrValue), false},
		{Fault("src", "corrupt"), true},
		{Fault("guard", "bypass"), false},
		{Not(Fault("guard", "bypass")), true},
		{All(Comp("src", epa.ErrValue), Not(Comp("sink", epa.ErrValue))), true},
		{Any(Comp("sink", epa.ErrValue), Fault("src", "corrupt")), true},
		{All(), true},
		{Any(), false},
	}
	for _, tt := range tests {
		if got := Eval(tt.cond, sc, res); got != tt.want {
			t.Errorf("Eval(%s) = %v, want %v", tt.cond, got, tt.want)
		}
	}
}

func TestConditionStrings(t *testing.T) {
	c := All(Comp("a", epa.ErrValue), Not(Any(Fault("b", "f"), Port("c", "p", epa.ErrOmission))))
	s := c.String()
	for _, want := range []string{"err(a,value_err)", "active(b,f)", "err(c.p,omission)", "!"} {
		if !strings.Contains(s, want) {
			t.Errorf("condition string %q missing %q", s, want)
		}
	}
}

func BenchmarkAnalyzeNative(b *testing.B) {
	eng, muts, reqs := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeASP(b *testing.B) {
	eng, muts, reqs := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeASPOpts(eng, muts, -1, reqs, ASPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
