package optimize

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file keeps the original map-based optimizer as a test-only
// reference for the compiled bitmask search. It differs from the code it
// replaced in exactly two places, both marked below:
//
//   - greedy bundles are sets (a mitigation blocking two sources of one
//     activation is bought and charged once), and
//   - the exact search no longer prunes a branch whose cost merely equals
//     the incumbent's total, which could discard an equal-cost,
//     lexicographically smaller zero-residual selection that the
//     documented tie-break prefers.

// refOptimal is the branch and bound over map[string]bool selections.
func refOptimal(p *Problem) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	best := p.Evaluate(map[string]bool{}) // baseline: buy nothing
	selected := map[string]bool{}
	var rec func(i, cost int)
	rec = func(i, cost int) {
		if p.Budget >= 0 && cost > p.Budget {
			return
		}
		// Strict: an equal cost can still tie the incumbent (see above).
		if cost > best.Total {
			return
		}
		if i == len(p.Options) {
			plan := p.Evaluate(selected)
			if refBetter(plan, best) {
				best = plan
			}
			return
		}
		o := p.Options[i]
		selected[o.ID] = true
		rec(i+1, cost+o.Cost)
		delete(selected, o.ID)
		rec(i+1, cost)
	}
	rec(0, 0)
	return best, nil
}

func refBetter(a, b Plan) bool {
	if a.Total != b.Total {
		return a.Total < b.Total
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return fmt.Sprint(a.Selected) < fmt.Sprint(b.Selected)
}

// refMultiPhase is the greedy staged plan re-evaluating every scenario
// row for every candidate move.
func refMultiPhase(p *Problem) ([]Phase, Plan, error) {
	if err := p.validate(); err != nil {
		return nil, Plan{}, err
	}
	costOf := map[string]int{}
	for _, o := range p.Options {
		costOf[o.ID] = o.Cost
	}
	selected := map[string]bool{}
	remaining := p.Budget
	var phases []Phase
	current := p.Evaluate(selected)
	for {
		moves := refCandidateMoves(p, selected, costOf)
		bestIdx := -1
		var bestGain float64
		var bestReduction, bestCost int
		for i, move := range moves {
			cost := 0
			for _, id := range move {
				cost += costOf[id]
			}
			if p.Budget >= 0 && cost > remaining {
				continue
			}
			for _, id := range move {
				selected[id] = true
			}
			trial := p.Evaluate(selected)
			for _, id := range move {
				delete(selected, id)
			}
			reduction := current.ResidualLoss - trial.ResidualLoss
			if reduction <= 0 {
				continue
			}
			gain := float64(reduction) / math.Max(float64(cost), 0.5)
			if bestIdx < 0 || gain > bestGain ||
				(gain == bestGain && refMoveKey(move) < refMoveKey(moves[bestIdx])) {
				bestGain = gain
				bestIdx = i
				bestReduction = reduction
				bestCost = cost
			}
		}
		if bestIdx < 0 {
			break
		}
		move := moves[bestIdx]
		for mi, id := range move {
			selected[id] = true
			reduction := 0
			if mi == 0 {
				reduction = bestReduction
			}
			phases = append(phases, Phase{
				MitigationID:  id,
				Cost:          costOf[id],
				LossReduction: reduction,
			})
		}
		if p.Budget >= 0 {
			remaining -= bestCost
		}
		current = p.Evaluate(selected)
	}
	return phases, current, nil
}

func refMoveKey(move []string) string { return strings.Join(move, "+") }

// refCandidateMoves enumerates greedy moves: every unselected single
// mitigation, plus per unblocked scenario the minimal source-covering
// bundles (one blocker per source of one activation), restricted to known
// options and deduplicated.
func refCandidateMoves(p *Problem, selected map[string]bool, costOf map[string]int) [][]string {
	var moves [][]string
	seen := map[string]bool{}
	add := func(move []string) {
		filtered := make([]string, 0, len(move))
		for _, id := range move {
			if _, known := costOf[id]; known && !selected[id] {
				filtered = append(filtered, id)
			}
		}
		sort.Strings(filtered)
		// A bundle is a set: drop repeated IDs.
		uniq := filtered[:0]
		for i, id := range filtered {
			if i == 0 || id != filtered[i-1] {
				uniq = append(uniq, id)
			}
		}
		filtered = uniq
		if len(filtered) == 0 {
			return
		}
		key := refMoveKey(filtered)
		if !seen[key] {
			seen[key] = true
			moves = append(moves, filtered)
		}
	}
	for _, o := range p.Options {
		add([]string{o.ID})
	}
	for _, s := range p.Scenarios {
		if s.BlockedBy(selected) {
			continue
		}
		for _, sources := range s.Activations {
			if len(sources) == 0 {
				continue
			}
			bundles := [][]string{{}}
			feasible := true
			for _, blockers := range sources {
				if len(blockers) == 0 {
					feasible = false
					break
				}
				var grown [][]string
				for _, b := range bundles {
					for _, m := range blockers {
						next := append(append([]string(nil), b...), m)
						grown = append(grown, next)
					}
					if len(grown) > 64 {
						break // cap combinatorial growth; singles still apply
					}
				}
				bundles = grown
			}
			if !feasible {
				continue
			}
			for _, b := range bundles {
				add(b)
			}
		}
	}
	return moves
}
