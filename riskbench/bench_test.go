package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cpsrisk/internal/cegar"
	"cpsrisk/internal/core"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/optimize"
	"cpsrisk/internal/sysmodel"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	if !reflect.DeepEqual(fleetDocs(7), fleetDocs(7)) {
		t.Error("fleetDocs(7) differs between calls")
	}
	if reflect.DeepEqual(fleetDocs(7), fleetDocs(8)) {
		t.Error("fleetDocs(7) and fleetDocs(8) are identical")
	}
	p1, o1 := servedSchedule(7)
	p2, o2 := servedSchedule(7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(o1, o2) {
		t.Error("servedSchedule(7) differs between calls")
	}
	p3, o3 := servedSchedule(8)
	if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(o1, o3) {
		t.Error("servedSchedule(7) and servedSchedule(8) are identical")
	}
}

func TestGeneratedModelsAreValid(t *testing.T) {
	types := testTypes(t)
	docs := fleetDocs(3)
	pools, orders := servedSchedule(3)
	for _, pool := range pools {
		for _, v := range pool {
			docs = append(docs, v.doc)
		}
	}
	for i, doc := range docs {
		m, err := sysmodel.ReadJSON(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if err := m.Validate(types); err != nil {
			t.Errorf("doc %d: %v", i, err)
		}
		if _, err := hazard.GenericRequirements(m); err != nil {
			t.Errorf("doc %d: %v", i, err)
		}
	}
	// A metadata edit leaves the engine and the candidate set alone; a
	// behavioural edit changes one of them.
	k := kb.MustDefaultKB()
	shape := func(doc []byte) (*sysmodel.Model, string) {
		m, err := sysmodel.ReadJSON(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		muts, err := faults.Candidates(m, types, k, faults.AllSources())
		if err != nil {
			t.Fatal(err)
		}
		var s []string
		for _, mu := range muts {
			s = append(s, fmt.Sprint(mu.Activation.String(), mu.Sources, mu.Likelihood))
		}
		return m, strings.Join(s, ";")
	}
	for ti, pool := range pools {
		base, baseMuts := shape(pool[0].doc)
		for i, v := range pool[1:] {
			m, muts := shape(v.doc)
			d := base.Fingerprint().Diff(m.Fingerprint())
			if d.Identical() {
				t.Errorf("tenant %d variant %d (%s) equals the base", ti, i+1, v.kind)
			}
			metaOnly := len(d.Added)+len(d.Removed)+len(d.ChangedBehavior)+len(d.ConnsChanged) == 0 && muts == baseMuts
			if metaOnly != (v.kind == "attr") {
				t.Errorf("tenant %d variant %d: kind %s but delta %+v", ti, i+1, v.kind, d)
			}
		}
		counts := map[int]int{}
		for _, idx := range orders[ti] {
			counts[idx]++
		}
		for i := range pool {
			if counts[i] != servedRounds {
				t.Errorf("tenant %d submits variant %d %d times, want %d", ti, i, counts[i], servedRounds)
			}
		}
	}
}

func TestCanonicalStripsOnlyVolatileFields(t *testing.T) {
	a, err := core.Run(smePlantConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	if !strings.Contains(report, `"sweep": {`) || !strings.Contains(report, `"treatment": "`) {
		t.Fatalf("unexpected report shape:\n%s", report[:200])
	}
	want := canonical([]byte(report))
	volatile := regexp.MustCompile(`"(executed|pruned|durationMs)": \d+`).ReplaceAllString(report, `"$1": 99999`)
	if volatile == report {
		t.Fatal("report has no effort counters to vary")
	}
	if got := canonical([]byte(volatile)); got != want {
		t.Error("changing sweep effort or durations changed the digest")
	}
	altered := strings.Replace(report, `"treatment": "`, `"treatment": "x`, 1)
	if got := canonical([]byte(altered)); got == want {
		t.Error("changing a scenario's risk level kept the digest")
	}
}

func TestReferencesFlagAlteredReports(t *testing.T) {
	plant := smePlantConfig(t, 2)
	tank := caseStudyConfig(kb.MustDefaultKB(), 2, cegar.NewPlantOracle())
	for name, cfg := range map[string]core.Config{"sme-plant": plant, "watertank": tank} {
		a, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if probs := reference(cfg, a); len(probs) > 0 {
			t.Fatalf("%s: unaltered assessment flagged: %v", name, probs)
		}
	}

	a, _ := core.Run(plant)
	r := append([]hazard.ScenarioResult(nil), a.Ranked...)
	r[3].Violated = nil
	a.Ranked = r
	if probs := reference(plant, a); len(probs) == 0 {
		t.Error("altered ranking row not flagged")
	}

	a, _ = core.Run(plant)
	if len(a.Plan.Selected) == 0 {
		t.Fatal("sme-plant plan selects nothing")
	}
	a.Plan.Selected = a.Plan.Selected[1:]
	if probs := reference(plant, a); len(probs) == 0 {
		t.Error("altered plan not flagged")
	}

	a, _ = core.Run(tank)
	a.Refinement.Findings[0].Verdict = cegar.Undetermined
	if probs := reference(tank, a); len(probs) == 0 {
		t.Error("altered CEGAR verdict not flagged")
	}

	o := newOutcome()
	refs := [][]string{{"a", "b"}}
	checkJobs(o, []jobSample{{tenant: 0, variant: 1, ok: true, digest: "b"}, {tenant: 0, variant: 0, ok: true, digest: "x"}}, refs)
	if o.attempted != 2 || o.failed != 1 {
		t.Errorf("served check: attempted %d failed %d, want 2 and 1", o.attempted, o.failed)
	}
}

func TestPlanDefect(t *testing.T) {
	ok := []optimize.Phase{{MitigationID: "A", Cost: 10}, {MitigationID: "B", Cost: 10}}
	if msg := planDefect(ok, 20); msg != "" {
		t.Errorf("sound plan flagged: %s", msg)
	}
	if msg := planDefect(append(ok, optimize.Phase{MitigationID: "A", Cost: 10}), -1); !strings.Contains(msg, "again") {
		t.Errorf("duplicate phase not flagged: %q", msg)
	}
	if msg := planDefect(ok, 15); !strings.Contains(msg, "over budget") {
		t.Errorf("over-budget plan not flagged: %q", msg)
	}
}

func TestBruteForceMatchesOptimalOnShippedPlant(t *testing.T) {
	cfg := smePlantConfig(t, 3)
	a, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probs := reference(cfg, a); len(probs) > 0 {
		t.Fatal(probs)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpecJSON        `json:"end_to_end"`
		PerLayer  []metricSpecJSON        `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, benchmark runs %v", names, workloadNames())
	}
	check := func(kind string, got []metricSpecJSON, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, benchmark prints %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

type metricSpecJSON struct {
	Name, Unit, Better string
}

func testTypes(t *testing.T) *sysmodel.TypeLibrary {
	t.Helper()
	f, err := os.Open("../" + typesPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	types, err := sysmodel.ReadTypesJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return types
}

func smePlantConfig(t *testing.T, maxCard int) core.Config {
	t.Helper()
	doc, err := os.ReadFile("../" + smePlantPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := plantConfig(doc, testTypes(t), kb.MustDefaultKB(), maxCard, true)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
