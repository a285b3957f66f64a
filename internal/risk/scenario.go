package risk

import (
	"sort"

	"cpsrisk/internal/qual"
)

// ScenarioInput is the risk-relevant abstraction of one analyzed scenario:
// the qualitative likelihood of each activated fault/attack and the
// severities of the requirements the scenario violates. It decouples the
// risk layer from the hazard-identification machinery.
type ScenarioInput struct {
	ID string
	// FaultLikelihoods holds one level per activated fault mode.
	FaultLikelihoods []qual.Level
	// ViolatedSeverities holds one level per violated requirement.
	ViolatedSeverities []qual.Level
}

// ScenarioRisk is the scored result.
type ScenarioRisk struct {
	ID string
	// Likelihood is the scenario's loss-event frequency: simultaneous
	// independent activations compound downward (each extra fault lowers
	// the joint frequency one level), reproducing the paper's §VII
	// observation that S7 (three simultaneous faults) is less probable
	// than S5 (two) despite equal violations.
	Likelihood qual.Level
	// Severity is the scenario loss magnitude: the worst violated
	// requirement.
	Severity qual.Level
	// Risk is the O-RA matrix cell of (Severity, Likelihood).
	Risk qual.Level
	// Violations counts violated requirements.
	Violations int
	// Faults counts activated fault modes.
	Faults int
}

// ScoreScenario computes the qualitative risk of a scenario. A scenario
// with no violations has VeryLow risk regardless of likelihood.
func ScoreScenario(in ScenarioInput) ScenarioRisk {
	s := qual.FiveLevel()
	out := ScenarioRisk{
		ID:         in.ID,
		Violations: len(in.ViolatedSeverities),
		Faults:     len(in.FaultLikelihoods),
	}
	if len(in.FaultLikelihoods) == 0 {
		out.Likelihood = qual.VeryLow
	} else {
		out.Likelihood = s.MinOf(in.FaultLikelihoods[0], in.FaultLikelihoods[1:]...)
		out.Likelihood = s.Add(out.Likelihood, -(len(in.FaultLikelihoods) - 1))
	}
	if len(in.ViolatedSeverities) == 0 {
		out.Severity = qual.VeryLow
		out.Risk = qual.VeryLow
		return out
	}
	out.Severity = s.MaxOf(in.ViolatedSeverities[0], in.ViolatedSeverities[1:]...)
	out.Risk = ORARisk(out.Severity, out.Likelihood)
	return out
}

// Less reports whether a ranks strictly before b in the prioritization
// order (paper §IV: "prioritize the faults and vulnerabilities based on
// their severity and potential impact"): by risk, then severity, then
// likelihood, all descending; ties break toward fewer faults (more
// plausible), then by ID for determinism.
func Less(a, b ScenarioRisk) bool {
	if a.Risk != b.Risk {
		return a.Risk > b.Risk
	}
	if a.Severity != b.Severity {
		return a.Severity > b.Severity
	}
	if a.Likelihood != b.Likelihood {
		return a.Likelihood > b.Likelihood
	}
	if a.Faults != b.Faults {
		return a.Faults < b.Faults
	}
	return a.ID < b.ID
}

// Rank orders scored scenarios for prioritization by Less.
func Rank(scenarios []ScenarioRisk) []ScenarioRisk {
	out := append([]ScenarioRisk(nil), scenarios...)
	sort.SliceStable(out, func(i, j int) bool { return Less(out[i], out[j]) })
	return out
}
