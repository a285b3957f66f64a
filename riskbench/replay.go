package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"cpsrisk/internal/attack"
	"cpsrisk/internal/budget"
	"cpsrisk/internal/cegar"
	"cpsrisk/internal/core"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/optimize"
	"cpsrisk/internal/sysmodel"
)

// The traced replay re-runs core.RunCtx's pipeline by calling each
// layer's public function in pipeline order, with a span around every
// call. Spans are flat children of the replayed assessment, so a layer's
// self time is its span's duration. The replay must produce the same
// report as core.RunCtx (checked by the batch runner); otherwise it
// would measure a different program.

// span is one timed call into a layer.
type span struct {
	name string // layer.call, e.g. "hazard.sweep"
	// stage is the core span-tree stage the call belongs to ("" for
	// rendering, which happens after core.RunCtx returns).
	stage string
	dur   time.Duration
	alloc uint64 // heap bytes allocated during the call
}

// replayRun is one replayed assessment.
type replayRun struct {
	a      *core.Assessment
	report []byte
	spans  []span
	total  time.Duration // replay wall time, rendering included
	// counts are per-layer work counts read from the layer outputs.
	counts map[string]float64
}

// countingOracle counts concrete oracle checks; the refinement loop
// calls Check concurrently.
type countingOracle struct {
	cegar.Oracle
	n atomic.Int64
}

func (o *countingOracle) Check(f cegar.Finding) (cegar.Verdict, error) {
	o.n.Add(1)
	return o.Oracle.Check(f)
}

func replay(ctx context.Context, cfg core.Config) (*replayRun, error) {
	r := &replayRun{counts: map[string]float64{}}
	start := time.Now()
	call := func(name, stage string, f func() error) error {
		a0 := heapAllocBytes()
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		r.spans = append(r.spans, span{name, stage, d, heapAllocBytes() - a0})
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		return nil
	}
	// The same governance core.RunCtx installs: one worker-pool governor
	// sized by Parallelism and an (unlimited) budget carrying it.
	ctx = budget.ContextWithGovernor(ctx, budget.NewGovernor(cfg.Parallelism))
	bud, cancel := budget.WithTimeout(ctx, cfg.Resources)
	defer cancel()
	out := &core.Assessment{TraceID: cfg.TraceID, Degradation: &budget.Degradation{}}

	var model *sysmodel.Model
	if err := call("sysmodel.refine", "model", func() error {
		model = cfg.Model.Clone()
		if err := model.RefineAll(); err != nil {
			return err
		}
		if err := model.Validate(cfg.Types); err != nil {
			return err
		}
		out.ModelStats = model.Stats()
		return nil
	}); err != nil {
		return nil, err
	}
	behaviors := cfg.Behaviors
	if behaviors == nil {
		_ = call("epa.library", "model", func() error {
			behaviors = epa.NewBehaviorLibrary(cfg.Types)
			return nil
		})
	}

	var muts []faults.Mutation
	if err := call("faults.candidates", "candidates", func() error {
		var err error
		muts, err = faults.Candidates(model, cfg.Types, cfg.KB, cfg.MutationSources)
		muts = mergeMutations(muts, cfg.ExtraMutations)
		out.Candidates = muts
		return err
	}); err != nil {
		return nil, err
	}
	analyzed := muts
	if cfg.KB != nil {
		if err := call("attack.graph", "candidates", func() error {
			g, err := attack.Build(model, cfg.Types, cfg.KB, attack.Options{ActiveMitigations: cfg.ActiveMitigations})
			if err != nil {
				return err
			}
			out.Compromisable = g.Compromisable()
			if len(cfg.ActiveMitigations) > 0 {
				analyzed = mitigation.Filter(cfg.KB, muts, cfg.ActiveMitigations)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	out.Analyzed = analyzed
	r.counts["faults.candidates"] = float64(len(analyzed))

	var eng *epa.Engine
	if err := call("epa.compile", "hazard", func() error {
		var err error
		eng, err = epa.NewEngine(model, behaviors)
		return err
	}); err != nil {
		return nil, err
	}
	hazardCall := func() error {
		var err error
		if cfg.UseASP {
			out.Analysis, err = hazard.AnalyzeASPOpts(eng, analyzed, cfg.MaxCardinality, cfg.Requirements, hazard.ASPOptions{
				Budget: bud, SolverWorkers: solverWorkers(cfg), Deterministic: cfg.SolverDeterministic,
			})
		} else {
			out.Analysis, err = hazard.AnalyzeSweep(eng, analyzed, cfg.MaxCardinality, cfg.Requirements, hazard.SweepConfig{
				Budget: bud, Parallelism: cfg.Parallelism, Prune: !cfg.NoPrune,
			})
		}
		if err != nil {
			return err
		}
		if t := out.Analysis.Truncation; t != nil {
			out.Degradation.Record(*t)
		}
		out.Ranked = out.Analysis.Ranked()
		return nil
	}
	hazardSpan := "hazard.sweep"
	if cfg.UseASP {
		hazardSpan = "solver.asp"
	}
	if err := call(hazardSpan, "hazard", hazardCall); err != nil {
		return nil, err
	}
	r.hazardCounts(out.Analysis)

	if cfg.Oracle != nil {
		oracle := &countingOracle{Oracle: cfg.Oracle}
		if err := call("cegar.validate", "validate", func() error {
			loop := cegar.RunParallel
			if cfg.UseASP {
				loop = cegar.RunParallelScreened
			}
			ref, err := loop([]cegar.Level{{
				Name: "assessment", Engine: eng, Mutations: analyzed, Requirements: cfg.Requirements,
			}}, oracle, cfg.MaxCardinality, bud, cfg.Parallelism)
			if err != nil {
				return err
			}
			out.Refinement = ref
			for _, t := range ref.Truncations {
				out.Degradation.Record(t)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		r.cegarCounts(out.Refinement, oracle.n.Load())
	}

	if cfg.KB != nil {
		problem := &optimize.Problem{Budget: cfg.Budget}
		_ = call("mitigation.prepare", "mitigation", func() error {
			out.RelevantMitigations = mitigation.Relevant(cfg.KB, muts)
			if cfg.Optimize {
				for _, m := range out.RelevantMitigations {
					problem.Options = append(problem.Options, optimize.Option{ID: m.ID, Cost: m.Cost + m.MaintenanceCost})
				}
				problem.Scenarios = mitigation.PrepareLosses(cfg.KB, out.Analysis, muts)
			}
			return nil
		})
		if cfg.Optimize {
			r.counts["mitigation.loss_rows"] = float64(len(problem.Scenarios))
			r.counts["mitigation.options"] = float64(len(problem.Options))
			if err := call("optimize.exact", "mitigation", func() error {
				var err error
				out.Plan, err = problem.Optimal()
				return err
			}); err != nil {
				return nil, err
			}
			if err := call("optimize.phases", "mitigation", func() error {
				var err error
				out.Phases, _, err = problem.MultiPhase()
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	out.Duration = time.Since(start)

	var buf bytes.Buffer
	if err := call("core.render", "", func() error { return out.WriteJSON(&buf) }); err != nil {
		return nil, err
	}
	r.total = time.Since(start)
	r.a, r.report = out, buf.Bytes()
	r.counts["core.report_bytes"] = float64(buf.Len())
	return r, nil
}

func (r *replayRun) hazardCounts(a *hazard.Analysis) {
	r.counts["hazard.scenarios"] = float64(len(a.Scenarios))
	if sw := a.Sweep; sw != nil {
		r.counts["hazard.executed"] = float64(sw.Executed)
		r.counts["hazard.pruned"] = float64(sw.Pruned)
		r.counts["hazard.replicated"] = float64(sw.OrbitHits)
		r.counts["hazard.executed_share"] = share(float64(sw.Executed), float64(len(a.Scenarios)))
	}
	if st := a.SolverStats; st != nil {
		r.counts["solver.decisions"] = float64(st.Decisions)
		r.counts["solver.conflicts"] = float64(st.Conflicts)
		r.counts["solver.propagations"] = float64(st.Propagations)
	}
}

func (r *replayRun) cegarCounts(res *cegar.Result, oracleChecks int64) {
	screened := 0
	for _, n := range res.PerLevelScreened {
		screened += n
	}
	r.counts["cegar.findings"] = float64(len(res.Findings))
	r.counts["cegar.screened_out"] = float64(screened)
	r.counts["cegar.oracle_checks"] = float64(oracleChecks)
	r.counts["cegar.confirmed"] = float64(len(res.Confirmed()))
	r.counts["cegar.spurious"] = float64(len(res.Spurious()))
}

// layerValues flattens the run into per-layer metric values.
func (r *replayRun) layerValues() map[string]float64 {
	v := map[string]float64{}
	for k, c := range r.counts {
		v[k] = c
	}
	add := func(name string, x float64) { v[name] += x }
	for _, s := range r.spans {
		d := ms(s.dur)
		mb := float64(s.alloc) / (1 << 20)
		switch s.name {
		case "sysmodel.refine":
			add("sysmodel.busy_ms", d)
		case "epa.library", "epa.compile":
			add("epa.compile_ms", d)
		case "faults.candidates":
			add("faults.busy_ms", d)
		case "attack.graph":
			add("attack.busy_ms", d)
		case "hazard.sweep":
			add("hazard.sweep_ms", d)
			add("hazard.sweep_alloc_mb", mb)
		case "solver.asp":
			add("solver.asp_ms", d)
		case "cegar.validate":
			add("cegar.validate_ms", d)
		case "mitigation.prepare":
			add("mitigation.prepare_ms", d)
		case "optimize.exact":
			add("optimize.exact_ms", d)
			add("optimize.alloc_mb", mb)
		case "optimize.phases":
			add("optimize.phases_ms", d)
			add("optimize.alloc_mb", mb)
		case "core.render":
			add("core.render_json_ms", d)
		}
	}
	return v
}

// stageTimes sums the replay's spans per core span-tree stage.
func (r *replayRun) stageTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		if s.stage != "" {
			out[s.stage] += s.dur
		}
	}
	return out
}

// selfSum is the summed self time of the layer spans.
func (r *replayRun) selfSum() time.Duration {
	var t time.Duration
	for _, s := range r.spans {
		t += s.dur
	}
	return t
}

// solverWorkers mirrors core's portfolio-width resolution.
func solverWorkers(cfg core.Config) int {
	if cfg.SolverWorkers != 0 {
		return cfg.SolverWorkers
	}
	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return min(p, 4)
}

// mergeMutations mirrors core's merge of hand-specified candidates into
// the generated set: sources are unioned and the maximum likelihood per
// activation is kept.
func mergeMutations(base, extra []faults.Mutation) []faults.Mutation {
	if len(extra) == 0 {
		return base
	}
	idx := map[epa.Activation]int{}
	out := append([]faults.Mutation(nil), base...)
	for i, m := range out {
		idx[m.Activation] = i
	}
	for _, m := range extra {
		i, ok := idx[m.Activation]
		if !ok {
			idx[m.Activation] = len(out)
			out = append(out, m)
			continue
		}
		seen := map[string]bool{}
		var srcs []string
		for _, s := range append(append([]string(nil), out[i].Sources...), m.Sources...) {
			if !seen[s] {
				seen[s] = true
				srcs = append(srcs, s)
			}
		}
		out[i].Sources = srcs
		if m.Likelihood > out[i].Likelihood {
			out[i].Likelihood = m.Likelihood
		}
	}
	return out
}
