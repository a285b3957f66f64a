package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"cpsrisk/internal/artifact"
	"cpsrisk/internal/budget"
	"cpsrisk/internal/cegar"
	"cpsrisk/internal/obs"
)

// refSummaryJSON is the reference encoding of a report: encoding/json's
// Encoder with the two-space indent the streaming writer reproduces.
func refSummaryJSON(t testing.TB, s *Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSummaryJSON checks the streaming writer against the reference.
func assertSummaryJSON(t testing.TB, s *Summary) {
	t.Helper()
	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	want := refSummaryJSON(t, s)
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("streamed report diverges from encoding/json at byte %d:\n--- got ---\n%s\n--- want ---\n%s",
			i, got.Bytes()[lo:min(got.Len(), i+80)], want[lo:min(len(want), i+80)])
	}
}

// TestSummaryJSONMatchesEncoder runs the writer differential over every
// report shape the pipeline produces: ASP and native paths, CEGAR, the
// optimizer, degradation, delta re-assessment, traced and metered runs,
// and an empty ranking.
func TestSummaryJSONMatchesEncoder(t *testing.T) {
	run := func(t *testing.T, cfg Config) *Assessment {
		t.Helper()
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	caseStudy := func(asp bool) Config {
		cfg := caseStudyConfig()
		cfg.MaxCardinality = -1
		cfg.UseASP = asp
		cfg.Optimize = true
		cfg.Budget = -1
		cfg.Oracle = cegar.NewPlantOracle()
		return cfg
	}
	t.Run("watertank-native", func(t *testing.T) {
		assertSummaryJSON(t, run(t, caseStudy(false)).Summarize())
	})
	t.Run("watertank-asp", func(t *testing.T) {
		assertSummaryJSON(t, run(t, caseStudy(true)).Summarize())
	})
	t.Run("sme-plant-optimize", func(t *testing.T) {
		a := run(t, smePlantConfig(t, 2))
		if len(a.Ranked) == 0 || a.Plan.Total == 0 {
			t.Fatal("sme-plant run has no rows or no plan")
		}
		assertSummaryJSON(t, a.Summarize())
	})
	t.Run("degraded", func(t *testing.T) {
		cfg := smePlantConfig(t, 3)
		cfg.Resources = budget.Limits{MaxScenarios: 3}
		a := run(t, cfg)
		if !a.Degradation.Degraded() {
			t.Fatal("capped run recorded no degradation")
		}
		assertSummaryJSON(t, a.Summarize())
	})
	t.Run("timeout-zero-scenarios", func(t *testing.T) {
		cfg := smePlantConfig(t, 2)
		cfg.Resources = budget.Limits{Timeout: time.Nanosecond}
		a := run(t, cfg)
		if len(a.Ranked) != 0 || !a.Degradation.Degraded() {
			t.Fatalf("1ns run kept %d rows, degraded=%v", len(a.Ranked), a.Degradation.Degraded())
		}
		assertSummaryJSON(t, a.Summarize())
	})
	t.Run("artifact-delta", func(t *testing.T) {
		f := newDeltaFixture()
		ac := artifact.New(4)
		defer ac.Close()
		cfg := f.config(f.model())
		cfg.ArtifactCache = ac
		run(t, cfg)
		m := f.model()
		retype(m, "s0", "sensorB")
		cfg = f.config(m)
		cfg.ArtifactCache = ac
		a := run(t, cfg)
		if a.Artifact == nil || a.Artifact.Path != "delta" {
			t.Fatalf("edited run artifact = %+v, want delta", a.Artifact)
		}
		assertSummaryJSON(t, a.Summarize())
	})
	t.Run("traced-metered", func(t *testing.T) {
		cfg := smePlantConfig(t, 2)
		cfg.Trace = obs.New("assessment")
		cfg.Metrics = obs.NewRegistry()
		cfg.TraceID = "trace-<1>&\"2\""
		a := run(t, cfg)
		s := a.Summarize()
		if s.Trace == nil || s.Metrics == nil {
			t.Fatal("traced run lacks its trace or metrics block")
		}
		assertSummaryJSON(t, s)
	})
	t.Run("empty-summary", func(t *testing.T) {
		assertSummaryJSON(t, &Summary{})
		assertSummaryJSON(t, &Summary{Candidates: []CandidateSummary{}, Scenarios: []ScenarioSummary{}})
	})
}

// summaryStrings are the string atoms FuzzSummaryJSON draws from:
// plain ASCII next to everything encoding/json escapes.
var summaryStrings = []string{
	"", "S1", "plc1.corrupt", "High", "mitigate",
	`<script>`, "a&b", `q"uote`, `back\slash`, "tab\tnl\n", "\x00\x1f\x7f",
	"line\u2028sep\u2029", "héllo", "\xff\xfe invalid", "日本",
}

// FuzzSummaryJSON drives the writer with random summaries — hostile
// strings, nil versus empty slices, optional blocks on and off — and
// demands byte equality with encoding/json.
func FuzzSummaryJSON(f *testing.F) {
	f.Add(int64(1), "")
	f.Add(int64(2), "<&>\u2028\xff")
	f.Fuzz(func(t *testing.T, seed int64, extra string) {
		r := rand.New(rand.NewSource(seed))
		pool := append(append([]string(nil), summaryStrings...), extra)
		str := func() string { return pool[r.Intn(len(pool))] }
		strs := func() []string {
			switch r.Intn(4) {
			case 0:
				return nil
			case 1:
				return []string{}
			}
			out := make([]string, 1+r.Intn(3))
			for i := range out {
				out[i] = str()
			}
			return out
		}
		s := &Summary{TraceID: str(), Compromisable: strs(), DurationMS: r.Int63n(3)}
		s.Model.Components, s.Model.Connections = r.Intn(5)-1, r.Intn(1000)
		if r.Intn(4) > 0 {
			s.Candidates = []CandidateSummary{}
			for i := r.Intn(4); i > 0; i-- {
				s.Candidates = append(s.Candidates, CandidateSummary{
					Component: str(), Fault: str(), Likelihood: str(), Sources: strs()})
			}
		}
		if r.Intn(4) > 0 {
			s.Scenarios = []ScenarioSummary{}
			for i := r.Intn(4); i > 0; i-- {
				s.Scenarios = append(s.Scenarios, ScenarioSummary{
					ID: str(), Activations: strs(), Violated: strs(),
					Likelihood: str(), Severity: str(), Risk: str(), Treatment: str()})
			}
		}
		if r.Intn(2) == 0 {
			s.Plan = &PlanSummary{Selected: strs(), Cost: r.Intn(9), Total: r.Intn(9), Blocked: strs()}
		}
		if r.Intn(2) == 0 {
			s.Refinement = &CEGARSummary{Confirmed: strs(), Spurious: strs()}
		}
		if r.Intn(2) == 0 {
			s.Degradation = []budget.Truncation{{Stage: str(), Reason: str(), Detail: str()}}
		}
		if r.Intn(2) == 0 {
			s.Sweep = &SweepSummary{Workers: 2, Scenarios: r.Intn(99), Shard: str()}
		}
		if r.Intn(2) == 0 {
			s.Artifact = &ArtifactSummary{Path: str(), ModelHash: str()}
		}
		if r.Intn(2) == 0 {
			s.Trace = &obs.SpanSnapshot{Name: str(), Children: []*obs.SpanSnapshot{{Name: str()}}}
		}
		if r.Intn(2) == 0 {
			s.Metrics = &obs.MetricsSnapshot{Counters: map[string]int64{str(): 1, "b": 2}}
		}
		assertSummaryJSON(t, s)
	})
}
