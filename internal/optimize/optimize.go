// Package optimize implements the cost-benefit estimation and optimization
// step (paper §IV-D): selecting mitigation sets that trade implementation
// cost against residual loss, under an optional budget constraint, with an
// exact branch-and-bound optimizer and a greedy multi-phase planner (the
// paper's staged security-consolidation strategy for SMEs) sharing one
// compilation of the problem to option bitmasks, and an ASP encoding for
// cross-checking optima through the embedded formal method.
package optimize

import (
	"fmt"
	"math"
	"sort"

	"cpsrisk/internal/budget"
	"cpsrisk/internal/logic"
	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/obs"
)

// Option is a selectable mitigation with its total per-horizon cost
// (implementation plus maintenance).
type Option struct {
	ID   string
	Cost int
}

// Problem is a mitigation-selection instance.
type Problem struct {
	Options   []Option
	Scenarios []mitigation.ScenarioLoss
	// Budget caps the summed mitigation cost; negative means unlimited.
	Budget int
}

// Plan is a selection with its evaluation.
type Plan struct {
	// Selected mitigation IDs, sorted.
	Selected []string
	// Cost is the summed mitigation cost.
	Cost int
	// ResidualLoss sums the losses of scenarios left unblocked.
	ResidualLoss int
	// Total = Cost + ResidualLoss (the minimized objective).
	Total int
	// Blocked lists the IDs of blocked scenarios, sorted.
	Blocked []string
}

// Evaluate scores a selection against the problem.
func (p *Problem) Evaluate(selected map[string]bool) Plan {
	plan := Plan{}
	for _, o := range p.Options {
		if selected[o.ID] {
			plan.Selected = append(plan.Selected, o.ID)
			plan.Cost += o.Cost
		}
	}
	sort.Strings(plan.Selected)
	for _, s := range p.Scenarios {
		if s.BlockedBy(selected) {
			plan.Blocked = append(plan.Blocked, s.ID)
		} else {
			plan.ResidualLoss += s.Loss
		}
	}
	sort.Strings(plan.Blocked)
	plan.Total = plan.Cost + plan.ResidualLoss
	return plan
}

// maxOptions bounds len(Problem.Options): selections are uint64 bitmasks,
// and the exact search is exponential in the option count anyway.
const maxOptions = 64

func (p *Problem) validate() error {
	if len(p.Options) > maxOptions {
		return fmt.Errorf("optimize: %d options exceed the limit of %d", len(p.Options), maxOptions)
	}
	seen := map[string]bool{}
	for _, o := range p.Options {
		if o.ID == "" {
			return fmt.Errorf("optimize: option with empty ID")
		}
		if seen[o.ID] {
			return fmt.Errorf("optimize: duplicate option %q", o.ID)
		}
		seen[o.ID] = true
		if o.Cost < 0 {
			return fmt.Errorf("optimize: option %q has negative cost", o.ID)
		}
	}
	for _, s := range p.Scenarios {
		if s.Loss < 0 {
			return fmt.Errorf("optimize: scenario %q has negative loss", s.ID)
		}
	}
	return nil
}

// Optimal finds a selection minimizing Cost + ResidualLoss subject to the
// budget, exactly: a branch and bound over option bitmasks (exponential in
// len(Options), fine for realistic mitigation catalogs). Ties prefer the
// cheaper, then the lexicographically smaller selection, making the
// result deterministic.
func (p *Problem) Optimal() (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	c := compile(p)
	sel, _ := c.optimal(nil) // a nil budget never expires
	return p.Evaluate(c.selection(sel)), nil
}

// Phase is one step of the greedy multi-phase plan.
type Phase struct {
	MitigationID string
	Cost         int
	// LossReduction is the marginal residual-loss reduction the phase
	// achieves at the moment it is applied.
	LossReduction int
}

// MultiPhase builds the paper's staged consolidation strategy: repeatedly
// deploy the mitigation move with the best marginal loss-reduction per
// cost that still fits the remaining budget, until nothing improves. A
// move is a single mitigation or a minimal blocking bundle — blocking an
// attack scenario can require covering several sources at once (e.g. user
// training AND endpoint security for the spearphishing + drive-by pair),
// where no single purchase reduces loss. A bundle is a set: a mitigation
// blocking several of its sources is bought and charged once. It returns
// the ordered phases ("first deal with the most potential and severe risk
// and later focus on the other ones") and the final plan. Bundle phases
// report each member mitigation as its own Phase entry sharing the
// bundle's reduction split on the first member.
func (p *Problem) MultiPhase() ([]Phase, Plan, error) {
	if err := p.validate(); err != nil {
		return nil, Plan{}, err
	}
	c := compile(p)
	phases, sel, _ := c.phases(nil)
	return phases, p.Evaluate(c.selection(sel)), nil
}

// Solve computes the exact optimum and the multi-phase plan from one
// compiled problem under b, in "optimize.exact" and "optimize.phases"
// spans under the span b's context carries. The search polls b every
// 1024 nodes and between greedy rounds. On expiry it returns the budget's
// *budget.ExhaustedError together with what it has: the best plan found
// so far (at worst buying nothing) and the phases built so far (none when
// the exact search was cut).
func (p *Problem) Solve(b *budget.Budget) (Plan, []Phase, error) {
	if err := p.validate(); err != nil {
		return Plan{}, nil, err
	}
	ctx := b.Context()
	_, sp := obs.StartSpan(ctx, "optimize.exact")
	c := compile(p)
	sel, err := c.optimal(b)
	plan := p.Evaluate(c.selection(sel))
	sp.End()
	if err != nil {
		return plan, nil, err
	}
	_, sp = obs.StartSpan(ctx, "optimize.phases")
	phases, _, err := c.phases(b)
	sp.End()
	return plan, phases, err
}

// optimal returns the selection minimizing (Total, Cost, fmt.Sprint of
// the sorted IDs). Options branch include-first in problem order. A
// branch is cut when its admissible bound — its cost plus the residual
// loss if every remaining option were bought too — exceeds the
// incumbent's total, or equals it at a higher cost; exact ties survive
// for the ID tie-break.
func (c *compiled) optimal(b *budget.Budget) (uint64, error) {
	n := len(c.costs)
	rest := make([]uint64, n+1) // rest[i]: options i..n-1
	for i := n - 1; i >= 0; i-- {
		rest[i] = rest[i+1] | 1<<i
	}
	var best uint64 // buy nothing
	bestCost, bestTotal := 0, c.residual(0)
	var nodes, prunes, incumbents int64
	var err error
	var rec func(i int, sel uint64, cost int)
	rec = func(i int, sel uint64, cost int) {
		if err != nil {
			return
		}
		if nodes&1023 == 0 {
			if err = b.Err("optimize"); err != nil {
				return
			}
		}
		nodes++
		if c.budget >= 0 && cost > c.budget {
			return
		}
		bound := cost + c.residual(sel|rest[i])
		if bound > bestTotal || bound == bestTotal && cost > bestCost {
			prunes++
			return
		}
		if i == n {
			// bound is the leaf's total; the cut above leaves only ties
			// and improvements.
			if bound < bestTotal || cost < bestCost || c.selectionLess(sel, best) {
				best, bestCost, bestTotal = sel, cost, bound
				incumbents++
			}
			return
		}
		rec(i+1, sel|1<<i, cost+c.costs[i])
		rec(i+1, sel, cost)
	}
	rec(0, 0, 0)
	if reg := obs.RegistryFromContext(b.Context()); reg != nil {
		reg.Counter("optimize.nodes").Add(nodes)
		reg.Counter("optimize.prunes").Add(prunes)
		reg.Counter("optimize.incumbents").Add(incumbents)
	}
	if e, ok := budget.Exhausted(err); ok {
		e.Detail = fmt.Sprintf("exact search stopped after %d nodes; the plan is the best selection found so far", nodes)
	}
	return best, err
}

// phases runs the greedy staged plan and returns its phases and final
// selection. Each round scores every candidate move by mask and deploys
// the best loss reduction per cost that fits the remaining budget; ties
// prefer the smaller "+"-joined ID list.
func (c *compiled) phases(b *budget.Budget) ([]Phase, uint64, error) {
	var (
		phases []Phase
		sel    uint64
		moves  []uint64
	)
	remaining := c.budget
	current := c.residual(0)
	for {
		if err := b.Err("optimize"); err != nil {
			if e, ok := budget.Exhausted(err); ok {
				e.Detail = fmt.Sprintf("multi-phase plan stopped after %d phases", len(phases))
			}
			return phases, sel, err
		}
		moves = c.moves(moves[:0], sel)
		var best uint64
		var bestGain float64
		var bestReduction, bestCost int
		for _, move := range moves {
			cost := c.cost(move)
			if c.budget >= 0 && cost > remaining {
				continue
			}
			reduction := current - c.residual(sel|move)
			if reduction <= 0 {
				continue
			}
			gain := float64(reduction) / math.Max(float64(cost), 0.5)
			if best == 0 || gain > bestGain || gain == bestGain && c.moveLess(move, best) {
				best, bestGain, bestReduction, bestCost = move, gain, reduction, cost
			}
		}
		if best == 0 {
			return phases, sel, nil
		}
		reduction := bestReduction
		for _, i := range c.byID {
			if best&(1<<i) != 0 {
				phases = append(phases, Phase{MitigationID: c.ids[i], Cost: c.costs[i], LossReduction: reduction})
				reduction = 0
			}
		}
		sel |= best
		if c.budget >= 0 {
			remaining -= bestCost
		}
		current -= bestReduction
	}
}

// EncodeASP renders the selection problem as an ASP optimization program:
//
//	option(M). cost(M, C).
//	{ select(M) : option(M) }.
//	:- budget(B), ... (budget handled via weight bound constraint)
//	blocked(S) :- ... per-scenario blocking structure
//	#minimize { C,m(M) : select(M), cost(M,C) ; L,s(S) : not blocked(S), loss(S,L) }.
//
// Used to cross-check the native optimizer through the embedded formal
// method. Budgets are encoded by enumerating... a budget constraint needs
// a weight aggregate; instead the encoding is exact for unlimited budgets
// and callers cross-check budgeted instances natively.
func (p *Problem) EncodeASP() (*logic.Program, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	prog := &logic.Program{}
	sym := logic.Sym
	for _, o := range p.Options {
		prog.AddFact(logic.A("option", sym(o.ID)))
		prog.AddFact(logic.A("cost", sym(o.ID), logic.Num(o.Cost)))
	}
	prog.AddRule(logic.ChoiceRule(logic.Unbounded, logic.Unbounded, []logic.ChoiceElem{{
		Atom: logic.A("select", logic.Var("M")),
		Cond: []logic.Literal{logic.Pos(logic.A("option", logic.Var("M")))},
	}}))
	for _, s := range p.Scenarios {
		prog.AddFact(logic.A("scenario", sym(s.ID)))
		prog.AddFact(logic.A("loss", sym(s.ID), logic.Num(s.Loss)))
		// blocked(S) :- actBlocked(S, i) for some activation i whose
		// sources are all covered.
		for ai, sources := range s.Activations {
			if len(sources) == 0 {
				continue
			}
			actAtom := logic.A("act_blocked", sym(s.ID), logic.Num(ai))
			body := make([]logic.BodyElem, 0, len(sources))
			ok := true
			for si, blockers := range sources {
				if len(blockers) == 0 {
					ok = false
					break
				}
				srcAtom := logic.A("src_blocked", sym(s.ID), logic.Num(ai), logic.Num(si))
				for _, m := range blockers {
					prog.AddRule(logic.NormalRule(srcAtom, logic.Pos(logic.A("select", sym(m)))))
				}
				body = append(body, logic.Pos(srcAtom))
			}
			if !ok {
				continue
			}
			prog.AddRule(logic.NormalRule(actAtom, body...))
			prog.AddRule(logic.NormalRule(logic.A("blocked", sym(s.ID)),
				logic.Pos(actAtom)))
		}
	}
	min, err := logic.Parse(`
		residual(S, L) :- scenario(S), loss(S, L), not blocked(S).
		#minimize { C,m(M) : select(M), cost(M, C) }.
		#minimize { L,s(S) : residual(S, L) }.
	`)
	if err != nil {
		return nil, err
	}
	prog.Extend(min)
	return prog, nil
}
