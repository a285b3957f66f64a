package cegar

import (
	"testing"

	"cpsrisk/internal/epa"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/plant"
	"cpsrisk/internal/watertank"
)

// levels builds the two abstraction levels of the case study: the coarse
// level uses the conservative default behaviours (everything propagates),
// the fine level the detailed water-tank behaviours.
func levels(t testing.TB) []Level {
	t.Helper()
	types := watertank.Types()

	coarseEng, err := epa.NewEngine(watertank.Model(), epa.NewBehaviorLibrary(types))
	if err != nil {
		t.Fatal(err)
	}
	fineEng, err := epa.NewEngine(watertank.Model(), watertank.Behaviors(types))
	if err != nil {
		t.Fatal(err)
	}
	return []Level{
		{Name: "coarse", Engine: coarseEng,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
		{Name: "fine", Engine: fineEng,
			Mutations: watertank.PaperCandidates(), Requirements: watertank.Requirements()},
	}
}

func TestLoopRefinesAndClassifies(t *testing.T) {
	res, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2 (coarse must produce spurious findings)", res.Iterations)
	}
	if len(res.PerLevelFindings) != 2 || res.PerLevelFindings[1] >= res.PerLevelFindings[0] {
		t.Fatalf("refinement must shrink findings: %v", res.PerLevelFindings)
	}
	// The genuine attack (F4) must be confirmed for both requirements.
	f4 := epa.Scenario{{Component: plant.CompEWS, Fault: plant.FaultCompromised}}
	confirmedF4 := map[string]bool{}
	for _, j := range res.Confirmed() {
		if j.Finding.Scenario.Key() == f4.Key() {
			confirmedF4[j.Finding.ReqID] = true
		}
	}
	if !confirmedF4["R1"] || !confirmedF4["R2"] {
		t.Errorf("F4 must be confirmed for R1 and R2: %v", confirmedF4)
	}
	// F2 alone is the paper's qualitative hazard that the concrete
	// controller compensates: it must end up spurious, not lost.
	f2 := epa.Scenario{{Component: plant.CompOutValve, Fault: plant.FaultStuckClosed}}
	spuriousF2 := false
	for _, j := range res.Spurious() {
		if j.Finding.Scenario.Key() == f2.Key() && j.Finding.ReqID == "R1" {
			spuriousF2 = true
		}
	}
	if !spuriousF2 {
		t.Error("F2-alone R1 finding must be classified spurious by the oracle")
	}
	// Nothing undetermined on the representable candidate set.
	if got := res.Undetermined(); len(got) != 0 {
		t.Errorf("undetermined findings: %v", got)
	}
}

// The loop must keep confirmed findings across refinement: every finding
// confirmed at the fine level corresponds to a real concrete violation
// (oracle soundness is exercised through the plant directly).
func TestNoConfirmedFindingIsFalse(t *testing.T) {
	res, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewPlantOracle()
	for _, j := range res.Confirmed() {
		v, err := oracle.Check(j.Finding)
		if err != nil {
			t.Fatal(err)
		}
		if v != Confirmed {
			t.Errorf("finding %s not reproducible", j.Finding)
		}
	}
}

func TestSingleLevelStopsImmediately(t *testing.T) {
	ls := levels(t)
	res, err := RunParallel(ls[1:], NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunParallel(nil, NewPlantOracle(), -1, nil, 1); err == nil {
		t.Error("no levels must fail")
	}
}

// An all-confirming oracle makes the loop stop at the coarse level (no
// spurious findings -> no refinement needed).
type yesOracle struct{}

func (yesOracle) Check(Finding) (Verdict, error) { return Confirmed, nil }

func TestLoopStopsWhenAllConfirmed(t *testing.T) {
	res, err := RunParallel(levels(t), yesOracle{}, -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", res.Iterations)
	}
	if len(res.Spurious()) != 0 {
		t.Error("all-confirming oracle cannot yield spurious findings")
	}
}

// Unrepresentable scenarios go to expert review rather than being dropped.
func TestUndeterminedRouting(t *testing.T) {
	o := NewPlantOracle()
	v, err := o.Check(Finding{
		Scenario: epa.Scenario{{Component: "alien_asset", Fault: "weird"}},
		ReqID:    "R1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != Undetermined {
		t.Errorf("verdict = %v, want undetermined", v)
	}
	v, err = o.Check(Finding{
		Scenario: epa.Scenario{{Component: plant.CompEWS, Fault: plant.FaultCompromised}},
		ReqID:    "R99",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != Undetermined {
		t.Errorf("unknown requirement verdict = %v", v)
	}
}

// The oracle's timing probes matter: sensor blindness only overflows when
// injected mid-fill, and the oracle must find that probe.
func TestOracleProbesTiming(t *testing.T) {
	o := NewPlantOracle()
	v, err := o.Check(Finding{
		Scenario: epa.Scenario{{Component: plant.CompLevelSensor, Fault: plant.FaultNoSignal}},
		ReqID:    "R1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != Confirmed {
		t.Errorf("timed sensor loss must be confirmed, got %v", v)
	}
}

// The formal re-check screen must agree with the native analysis that
// produced the findings (it refutes nothing on the case study), and it
// must refute a fabricated counterexample the formal model rejects —
// without involving any oracle.
func TestScreenFindings(t *testing.T) {
	fine := levels(t)[1]
	genuine := Finding{
		Scenario: epa.Scenario{{Component: plant.CompEWS, Fault: plant.FaultCompromised}},
		ReqID:    "R1",
	}
	fabricated := Finding{Scenario: nil, ReqID: "R1"} // fault-free run violates nothing
	verdicts, err := screenFindings(fine, []Finding{genuine, fabricated}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0] != 0 {
		t.Errorf("genuine finding screened as %v, want pass-through", verdicts[0])
	}
	if verdicts[1] != Spurious {
		t.Errorf("fabricated finding screened as %v, want spurious", verdicts[1])
	}
}

// On the case study the screen and the native analysis agree exactly, so
// every finding must reach the oracle (the screen only guards drift),
// and the screened loop must classify identically to the plain one.
func TestScreenAgreesWithNativeOnCaseStudy(t *testing.T) {
	res, err := RunParallelScreened(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLevelScreened) != res.Iterations {
		t.Fatalf("screen counts = %v for %d iterations", res.PerLevelScreened, res.Iterations)
	}
	for li, n := range res.PerLevelScreened {
		if n != 0 {
			t.Errorf("level %d: screen refuted %d findings the native analysis produced", li, n)
		}
	}
	plain, err := RunParallel(levels(t), NewPlantOracle(), -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Findings) != len(res.Findings) {
		t.Fatalf("screened loop found %d findings, plain %d", len(res.Findings), len(plain.Findings))
	}
	for i := range plain.Findings {
		p, s := plain.Findings[i], res.Findings[i]
		if p.Finding.String() != s.Finding.String() || p.Verdict != s.Verdict || p.Level != s.Level {
			t.Errorf("finding %d: screened %+v != plain %+v", i, s, p)
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	for _, v := range []Verdict{Confirmed, Spurious, Undetermined} {
		if v.String() == "" || v.String() == "unknown-verdict" {
			t.Errorf("verdict %d stringer broken", v)
		}
	}
	f := Finding{Scenario: epa.Scenario{{Component: "a", Fault: "b"}}, ReqID: "R1"}
	if f.String() != "{a:b} violates R1" {
		t.Errorf("finding string = %q", f.String())
	}
	_ = hazard.Requirement{}
}

func BenchmarkCEGARLoop(b *testing.B) {
	ls := levels(b)
	oracle := NewPlantOracle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunParallel(ls, oracle, -1, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}
