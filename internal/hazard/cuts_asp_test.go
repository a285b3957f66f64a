package hazard

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/qual"
	"cpsrisk/internal/solver"
	"cpsrisk/internal/sysmodel"
)

// minimalCutsASPSingleShot is the pre-session reference for
// MinimalCutsASP: every round rebuilds the program with all blocking
// constraints and re-grounds and re-solves it from scratch. It backs the
// differential equality test and the S4 incremental-vs-single-shot
// benchmark.
func minimalCutsASPSingleShot(eng *epa.Engine, muts []faults.Mutation, req Requirement, maxRounds int) ([]epa.Scenario, error) {
	base, err := cutsBase(eng, muts, req)
	if err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = defaultCutRounds(len(muts))
	}
	var cuts []epa.Scenario
	for round := 0; round < maxRounds; round++ {
		prog := &logic.Program{}
		prog.Extend(base)
		for _, cut := range cuts {
			prog.AddRule(blockCut(cut))
		}
		res, err := solver.SolveProgram(prog, solver.Options{Optimize: true})
		if err != nil {
			return nil, err
		}
		if len(res.Models) == 0 {
			return cuts, nil // space exhausted
		}
		cuts = append(cuts, cutBatch(res.Models, muts)...)
	}
	return nil, fmt.Errorf("hazard: minimal-cut enumeration exceeded %d rounds", maxRounds)
}

func cutKeys(cuts []epa.Scenario) []string {
	out := make([]string, 0, len(cuts))
	for _, c := range cuts {
		out = append(out, c.Key())
	}
	sort.Strings(out)
	return out
}

// The ASP minimal-cut enumeration matches the native subset-based
// computation on the guarded-chain model, for every requirement.
func TestMinimalCutsASPAgreesWithNative(t *testing.T) {
	eng, muts, reqs := setup(t)
	analysis, err := AnalyzeSweep(eng, muts, -1, reqs, SweepConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		native := analysis.MinimalCuts(req.ID)
		var nativeScenarios []epa.Scenario
		for _, n := range native {
			nativeScenarios = append(nativeScenarios, n.Scenario)
		}
		asp, err := MinimalCutsASP(eng, muts, req, 0, ASPOptions{})
		if err != nil {
			t.Fatalf("%s: %v", req.ID, err)
		}
		got, want := cutKeys(asp), cutKeys(nativeScenarios)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s: ASP cuts %v != native %v", req.ID, got, want)
		}
	}
}

func TestMinimalCutsASPNoViolation(t *testing.T) {
	eng, muts, _ := setup(t)
	impossible := Requirement{
		ID: "RX", Severity: 0,
		Condition: All(Fault("src", "corrupt"), Not(Fault("src", "corrupt"))),
	}
	cuts, err := MinimalCutsASP(eng, muts, impossible, 0, ASPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Errorf("unsatisfiable condition yielded cuts: %v", cuts)
	}
}

func TestMinimalCutsASPValidation(t *testing.T) {
	eng, muts, _ := setup(t)
	if _, err := MinimalCutsASP(eng, muts, Requirement{ID: ""}, 0, ASPOptions{}); err == nil {
		t.Error("empty requirement must fail")
	}
	// A tiny round budget must be reported, not silently truncated.
	reqs := []Requirement{{ID: "R1", Condition: Comp("sink", epa.ErrValue)}}
	if _, err := MinimalCutsASP(eng, muts, reqs[0], 1, ASPOptions{}); err == nil {
		t.Error("exceeding maxRounds must error (two cardinality levels exist)")
	}
}

func BenchmarkMinimalCutsASP(b *testing.B) {
	eng, muts, reqs := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinimalCutsASP(eng, muts, reqs[0], 0, ASPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The multi-shot enumeration must be byte-identical to the single-shot
// reference: same cuts, same order (both sort each round's batch by key,
// and round membership is determined by the program alone).
func TestMinimalCutsASPIncrementalMatchesSingleShot(t *testing.T) {
	eng, muts, reqs := setup(t)
	for _, req := range reqs {
		inc, err := MinimalCutsASP(eng, muts, req, 0, ASPOptions{})
		if err != nil {
			t.Fatalf("%s incremental: %v", req.ID, err)
		}
		ss, err := minimalCutsASPSingleShot(eng, muts, req, 0)
		if err != nil {
			t.Fatalf("%s single-shot: %v", req.ID, err)
		}
		ordered := func(cuts []epa.Scenario) string {
			keys := make([]string, 0, len(cuts))
			for _, c := range cuts {
				keys = append(keys, c.Key())
			}
			return strings.Join(keys, "|")
		}
		if got, want := ordered(inc), ordered(ss); got != want {
			t.Errorf("%s: incremental cuts %q != single-shot %q", req.ID, got, want)
		}
	}
}

// maxRounds <= 0 must clamp instead of overflowing 1 << len(muts) for
// large candidate sets (>= 63 mutations used to shift to zero and abort
// immediately with the exceeded-rounds error).
func TestMinimalCutsDefaultRoundsClamp(t *testing.T) {
	if got := defaultCutRounds(64); got != maxCutRoundsCap {
		t.Errorf("defaultCutRounds(64) = %d, want clamp %d", got, maxCutRoundsCap)
	}
	if got := defaultCutRounds(70); got <= 0 {
		t.Errorf("defaultCutRounds(70) = %d, overflowed", got)
	}
	if got := defaultCutRounds(3); got != 8 {
		t.Errorf("defaultCutRounds(3) = %d, want 8", got)
	}
}

// An interrupted optimization round yields a non-optimal incumbent, not
// a minimal cut. Under a decision cap the enumeration must report the
// exhaustion and return only cuts of completed rounds — every one of
// them a true minimal cut — instead of a silently incomplete set.
func TestMinimalCutsASPInterruptedReportsExhaustion(t *testing.T) {
	eng, muts, reqs := setup(t)
	full, err := MinimalCutsASP(eng, muts, reqs[0], 0, ASPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	minimal := map[string]bool{}
	for _, k := range cutKeys(full) {
		minimal[k] = true
	}
	bud := budget.New(context.Background(), budget.Limits{MaxDecisions: 5})
	cuts, err := MinimalCutsASP(eng, muts, reqs[0], 0, ASPOptions{Budget: bud})
	if err == nil {
		if got, want := cutKeys(cuts), cutKeys(full); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("cuts = %v with a nil error, want the full set %v or an exhaustion error", got, want)
		}
		return
	}
	ex, ok := budget.Exhausted(err)
	if !ok {
		t.Fatalf("err = %v, want *budget.ExhaustedError", err)
	}
	if ex.Stage != "hazard-cuts" || ex.Reason != budget.ReasonDecisions {
		t.Errorf("exhaustion = %+v, want stage hazard-cuts, reason %s", ex, budget.ReasonDecisions)
	}
	if len(cuts) >= len(full) {
		t.Errorf("interrupted run returned %d cuts of %d", len(cuts), len(full))
	}
	for _, k := range cutKeys(cuts) {
		if !minimal[k] {
			t.Errorf("interrupted run recorded non-minimal cut %s", k)
		}
	}
}

// guardedChain builds src -> g1 -> ... -> gk -> sink where every guard
// can corrupt its output or (under a bypass fault) pass corruption
// through. Minimal cuts for "sink sees a corrupt value" then span k+1
// cardinality levels — {gk:corrupt}, {g(k-1):corrupt, gk:bypass}, ...,
// {src:corrupt, g1..gk:bypass} — so the enumeration climbs one
// optimization round per level, the workload experiment S4 measures.
func guardedChain(b *testing.B, k int) (*epa.Engine, []faults.Mutation, Requirement) {
	b.Helper()
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
	ids := []string{"src"}
	for i := 1; i <= k; i++ {
		ids = append(ids, fmt.Sprintf("g%d", i))
	}
	ids = append(ids, "sink")
	for _, id := range ids {
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "node"})
	}
	for i := 0; i+1 < len(ids); i++ {
		m.Connect(ids[i], "out", ids[i+1], "in", sysmodel.SignalFlow)
	}
	lib := epa.NewBehaviorLibrary(types)
	lib.MustRegister(&epa.TypeBehavior{
		Type:    "node",
		Effects: []epa.FaultEffect{{Fault: "corrupt", Port: "out", Emit: epa.StateOf(epa.ErrValue)}},
		Transfers: []epa.TransferRule{
			{From: "in", Match: epa.StateOf(epa.ErrValue), To: "out",
				Emit: epa.StateOf(epa.ErrValue), WhenFault: "bypass"},
		},
	})
	eng, err := epa.NewEngine(m, lib)
	if err != nil {
		b.Fatal(err)
	}
	muts := []faults.Mutation{{
		Activation: epa.Activation{Component: "src", Fault: "corrupt"},
		Likelihood: qual.Medium, Sources: []string{"fault_mode"},
	}}
	for i := 1; i <= k; i++ {
		g := fmt.Sprintf("g%d", i)
		muts = append(muts,
			faults.Mutation{Activation: epa.Activation{Component: g, Fault: "corrupt"},
				Likelihood: qual.Medium, Sources: []string{"fault_mode"}},
			faults.Mutation{Activation: epa.Activation{Component: g, Fault: "bypass"},
				Likelihood: qual.Low, Sources: []string{"fault_mode"}})
	}
	req := Requirement{
		ID: "S4", Severity: qual.High,
		Condition: Comp("sink", epa.ErrValue),
	}
	return eng, muts, req
}

// BenchmarkS4_MultiShot is the cuts pair of experiment S4 (the horizon
// pair lives with the root benchmarks): it enumerates the guarded
// chain's minimal cut sets, the single-shot arm re-grounding the EPA
// encoding on every optimization round, the incremental arm grounding
// once and streaming blocking constraints into the live session.
func BenchmarkS4_MultiShot(b *testing.B) {
	const guards = 6
	eng, muts, req := guardedChain(b, guards)
	b.Run("cuts/incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cuts, err := MinimalCutsASP(eng, muts, req, 0, ASPOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(cuts) != guards+1 {
				b.Fatalf("cuts = %d, want %d", len(cuts), guards+1)
			}
		}
	})
	b.Run("cuts/single-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cuts, err := minimalCutsASPSingleShot(eng, muts, req, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(cuts) != guards+1 {
				b.Fatalf("cuts = %d, want %d", len(cuts), guards+1)
			}
		}
	})
}
