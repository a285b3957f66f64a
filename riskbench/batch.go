package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"cpsrisk/internal/cegar"
	"cpsrisk/internal/core"
	"cpsrisk/internal/epa"
	"cpsrisk/internal/faults"
	"cpsrisk/internal/hazard"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/mitigation"
	"cpsrisk/internal/obs"
	"cpsrisk/internal/optimize"
	"cpsrisk/internal/sysmodel"
	"cpsrisk/internal/watertank"
)

const (
	typesPath    = "models/types.json"
	smePlantPath = "models/sme-plant.json"
	// parallelism sizes every sweep and validation pool for a 2-core
	// machine; it is fixed so the load does not change with the host.
	// plant-optimize and casestudy-asp run these pools on one P (see
	// their workload notes in main.go).
	parallelism = 2
)

// batchInput is one assessment configuration a batch workload cycles
// through; key names it in reports.
type batchInput struct {
	key string
	cfg core.Config
}

func loadTypes() (*sysmodel.TypeLibrary, error) {
	f, err := os.Open(typesPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sysmodel.ReadTypesJSON(f)
}

// plantConfig is the riskassess CLI's configuration for a model
// document: generic requirements, every mutation source, the default
// KB, unlimited budget, a single solver engine.
func plantConfig(doc []byte, types *sysmodel.TypeLibrary, k *kb.KB, maxCard int, optimize bool) (core.Config, error) {
	m, err := sysmodel.ReadJSON(bytes.NewReader(doc))
	if err != nil {
		return core.Config{}, err
	}
	reqs, err := hazard.GenericRequirements(m)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Model: m, Types: types, KB: k, Requirements: reqs,
		MutationSources:   faults.AllSources(),
		ActiveMitigations: map[string]bool{},
		MaxCardinality:    maxCard,
		Optimize:          optimize,
		Budget:            -1,
		Parallelism:       parallelism,
		SolverWorkers:     1,
	}, nil
}

// runPlantOptimize: the shipped sme-plant, as `riskassess -maxcard 4
// -optimize`. The input is the shipped model, so the seed changes
// nothing here.
func runPlantOptimize(seed int64, seconds time.Duration, trace bool) (*outcome, error) {
	setup := func() ([]batchInput, error) {
		types, err := loadTypes()
		if err != nil {
			return nil, err
		}
		k, err := kb.DefaultKB()
		if err != nil {
			return nil, err
		}
		doc, err := os.ReadFile(smePlantPath)
		if err != nil {
			return nil, err
		}
		cfg, err := plantConfig(doc, types, k, 4, true)
		return []batchInput{{"sme-plant", cfg}}, err
	}
	return runBatch(setup, seconds, trace)
}

// runFleetSweep: the seeded fleet of generated plants, cycled in order,
// pruned native sweep at cardinality 4, no optimiser.
func runFleetSweep(seed int64, seconds time.Duration, trace bool) (*outcome, error) {
	setup := func() ([]batchInput, error) {
		types, err := loadTypes()
		if err != nil {
			return nil, err
		}
		k, err := kb.DefaultKB()
		if err != nil {
			return nil, err
		}
		var ins []batchInput
		for i, doc := range fleetDocs(seed) {
			cfg, err := plantConfig(doc, types, k, 4, false)
			if err != nil {
				return nil, fmt.Errorf("fleet plant %d: %w", i+1, err)
			}
			ins = append(ins, batchInput{fmt.Sprintf("fleet-%d", i+1), cfg})
		}
		return ins, nil
	}
	return runBatch(setup, seconds, trace)
}

// runCaseStudyASP: the paper's water tank (section VII) over its
// candidate set plus every generated source, cardinality 3, ASP path
// with a single solver engine, CEGAR against the plant oracle. The
// input is fixed, so the seed changes nothing here.
func runCaseStudyASP(seed int64, seconds time.Duration, trace bool) (*outcome, error) {
	setup := func() ([]batchInput, error) {
		k, err := kb.DefaultKB()
		if err != nil {
			return nil, err
		}
		return []batchInput{{"watertank", caseStudyConfig(k, 3, cegar.NewPlantOracle())}}, nil
	}
	return runBatch(setup, seconds, trace)
}

func caseStudyConfig(k *kb.KB, maxCard int, oracle cegar.Oracle) core.Config {
	types := watertank.Types()
	return core.Config{
		Model: watertank.Model(), Types: types, Behaviors: watertank.Behaviors(types),
		KB: k, Requirements: watertank.Requirements(),
		ExtraMutations:  watertank.PaperCandidates(),
		MutationSources: faults.AllSources(),
		MaxCardinality:  maxCard,
		UseASP:          true,
		SolverWorkers:   1,
		Oracle:          oracle,
		Budget:          -1,
		Parallelism:     parallelism,
	}
}

// assess is one timed operation: the pipeline through the rendered JSON
// report.
func assess(ctx context.Context, cfg core.Config) (*core.Assessment, []byte, error) {
	a, err := core.RunCtx(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	err = a.WriteJSON(&buf)
	return a, buf.Bytes(), err
}

// firstRun is an input's warm-up assessment, made during set-up: the
// output every timed run must reproduce and the one checked against the
// references.
type firstRun struct {
	a      *core.Assessment
	digest string
}

// minSamples is the fewest assessments the end-to-end loop collects,
// so that p90 has at least ten samples beyond it; on a slow machine the
// loop runs past its time, by at most a quarter, to reach it.
const minSamples = 100

// batchLoop runs assessments round-robin over the inputs and records
// the latencies and heap bytes allocated per assessment.
type batchLoop struct {
	lats, allocs []float64
	perKey       map[string]int
	defects      int
	defectMsg    string
}

func (b *batchLoop) run(o *outcome, inputs []batchInput, first map[string]*firstRun, d time.Duration, atLeast int) {
	ctx := context.Background()
	b.perKey = map[string]int{}
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); el >= d+d/4 || (el >= d && i >= atLeast) {
			break
		}
		in := inputs[i%len(inputs)]
		a0 := heapAllocBytes()
		t0 := time.Now()
		a, report, err := assess(ctx, in.cfg)
		lat := time.Since(t0)
		alloc := heapAllocBytes() - a0
		o.attempted++
		b.perKey[in.key]++
		if err != nil {
			o.failed++
			o.problem("%s: %v", in.key, err)
			continue
		}
		b.lats = append(b.lats, ms(lat))
		b.allocs = append(b.allocs, float64(alloc)/(1<<20))
		if canonical(report) != first[in.key].digest || a.Degradation.Degraded() {
			o.failed++
			o.problem("%s: report differs from the first run's (degraded %v)", in.key, a.Degradation.Degraded())
		}
		if in.cfg.Optimize {
			if msg := planDefect(a.Phases, in.cfg.Budget); msg != "" {
				b.defects++
				b.defectMsg = msg
			}
		}
	}
}

// runBatch measures a batch workload. Set-up is everything before the
// timed loop: loading the type library and KB, parsing or generating
// the models, and one warm-up assessment per input — the cold first run
// whose report every timed run must reproduce. The bare loading takes
// well under a millisecond, too little to time steadily, and a change
// that moves work out of the assessments into first-use preparation
// shows in the warm-up.
func runBatch(setup func() ([]batchInput, error), seconds time.Duration, trace bool) (*outcome, error) {
	o := newOutcome()
	type prepared struct {
		inputs []batchInput
		first  map[string]*firstRun
	}
	ctx := context.Background()
	p, setupTime, err := timedMedian(setupReps, func() (prepared, error) {
		inputs, err := setup()
		if err != nil {
			return prepared{}, err
		}
		first := map[string]*firstRun{}
		for _, in := range inputs {
			a, report, err := assess(ctx, in.cfg)
			if err != nil {
				return prepared{}, fmt.Errorf("%s: %w", in.key, err)
			}
			first[in.key] = &firstRun{a, canonical(report)}
		}
		return prepared{inputs, first}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	inputs, first := p.inputs, p.first

	var loop batchLoop
	if !trace {
		rssw := startRSSWindows()
		steal := cpuTicks()
		loop.run(o, inputs, first, seconds, minSamples)
		o.note("host_steal_share", steal.share(), "ratio")
		rss, err := rssw.median()
		if err != nil {
			return nil, err
		}
		o.set("setup_s", setupTime.Seconds(), "s")
		o.set("verdict_ms_p50", median(loop.lats), "ms")
		o.set("verdict_ms_p90", quantile(loop.lats, 0.9), "ms")
		o.set("jobs_per_s", share(float64(len(loop.lats)), sum(loop.lats)/1000), "1/s")
		o.set("peak_rss_mb", rss, "MB")
		o.note("verdict_samples", float64(len(loop.lats)), "count")
	} else {
		loop.run(o, inputs, first, seconds/2, 0)
		if err := tracedReplay(o, inputs, first, seconds/2, median(loop.lats)); err != nil {
			return nil, err
		}
		o.set("core.alloc_mb_per_op", median(loop.allocs), "MB")
		o.set("optimize.plan_defect_share", share(float64(loop.defects), float64(len(loop.lats))), "ratio")
	}

	for _, in := range inputs {
		if probs := reference(in.cfg, first[in.key].a); len(probs) > 0 {
			o.failed += loop.perKey[in.key]
			for _, p := range probs {
				o.problem("%s: %s", in.key, p)
			}
		}
	}
	o.note("failed_share", share(float64(o.failed), float64(o.attempted)), "ratio")
	if inputs[0].cfg.Optimize {
		o.note("plan_defect_share", share(float64(loop.defects), float64(len(loop.lats))), "ratio")
		if loop.defects > 0 {
			// Known program defect (ROADMAP item 1): MultiPhase's greedy
			// bundles repeat a mitigation. Reported, not hidden.
			fmt.Println("# KNOWN DEFECT (ROADMAP item 1, duplicate-phase plan):", loop.defectMsg)
		}
	}
	return o, nil
}

// tracedReplay alternates replayed assessments with core.RunCtx runs
// carrying the program's own span tree, for d. It reports the median of
// every per-layer value, checks that the replay reproduces the
// program's report, and checks the replay's timing against the span
// tree and against its own total.
func tracedReplay(o *outcome, inputs []batchInput, first map[string]*firstRun, d time.Duration, untracedP50 float64) error {
	ctx := context.Background()
	values := map[string][]float64{}
	var totals, selfShares []float64
	replayStages, coreStages := map[string][]float64{}, map[string][]float64{}
	var coreTotals []float64
	checked := map[string]bool{}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) || len(totals) == 0; i++ {
		in := inputs[i%len(inputs)]
		r, err := replay(ctx, in.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", in.key, err)
		}
		if !checked[in.key] {
			checked[in.key] = true
			if canonical(r.report) != first[in.key].digest || !reflect.DeepEqual(r.a.Phases, first[in.key].a.Phases) {
				o.problem("%s: replayed report differs from core.RunCtx's: the replay measures a different program", in.key)
			}
		}
		totals = append(totals, ms(r.total))
		selfShares = append(selfShares, share(float64(r.selfSum()), float64(r.total)))
		for k, v := range r.layerValues() {
			values[k] = append(values[k], v)
		}
		for st, dur := range r.stageTimes() {
			replayStages[st] = append(replayStages[st], ms(dur))
		}

		cfg := in.cfg
		cfg.Trace = obs.New("assessment")
		a, err := core.RunCtx(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s traced: %w", in.key, err)
		}
		coreTotals = append(coreTotals, ms(a.Duration))
		for _, c := range a.Trace.Children {
			coreStages[c.Name] = append(coreStages[c.Name], float64(c.DurUS)/1000)
		}
	}
	for _, m := range perLayer {
		if _, ok := o.gated[m.name]; !ok {
			o.set(m.name, median(values[m.name]), m.unit)
		}
	}
	total := median(totals)
	o.set("trace.overhead_share", share(total, untracedP50)-1, "ratio")
	o.set("trace.self_share", median(selfShares), "ratio")

	// Stage agreement: per core stage, the replay's median stage time
	// against the span tree's, relative to the stage — or to a tenth of
	// the run for stages shorter than that, whose few hundred
	// microseconds time too noisily to compare to a tenth of their own.
	floor := 0.1 * median(coreTotals)
	worst := 0.0
	for st, cs := range coreStages {
		c := median(cs)
		diff := math.Abs(median(replayStages[st]) - c)
		worst = math.Max(worst, diff/math.Max(c, floor))
		o.note("trace.stage."+st+"_ms", c, "ms")
		o.note("trace.replay."+st+"_ms", median(replayStages[st]), "ms")
	}
	o.set("trace.stage_agreement", worst, "ratio")
	o.note("trace.replays", float64(len(totals)), "count")
	o.note("trace.total_ms", total, "ms")
	// Timing fidelity is a property of the measurement, not of the
	// program's output, so a miss is a warning rather than a failed check.
	if worst > 0.1 {
		fmt.Printf("# WARNING: replay stage times disagree with the program's span tree by %.0f%% (limit 10%%)\n", worst*100)
	}
	if s := median(selfShares); s < 0.9 {
		fmt.Printf("# WARNING: layer self times cover %.0f%% of the traced total (want >= 90%%)\n", s*100)
	}
	return nil
}

// reference checks one input's assessment against the independent
// references: the sequential unpruned native sweep for the ranking, a
// brute-force plan search, and the unscreened sequential CEGAR loop.
func reference(cfg core.Config, a *core.Assessment) []string {
	eng, muts, analyzed, err := compile(cfg)
	if err != nil {
		return []string{"reference compile: " + err.Error()}
	}
	ref, err := hazard.AnalyzeSweep(eng, analyzed, cfg.MaxCardinality, cfg.Requirements, hazard.SweepConfig{Parallelism: 1})
	if err != nil {
		return []string{"reference sweep: " + err.Error()}
	}
	probs := compareRanking(a.Ranked, ref)
	if cfg.Optimize {
		p := &optimize.Problem{Budget: cfg.Budget}
		for _, m := range mitigation.Relevant(cfg.KB, muts) {
			p.Options = append(p.Options, optimize.Option{ID: m.ID, Cost: m.Cost + m.MaintenanceCost})
		}
		p.Scenarios = mitigation.PrepareLosses(cfg.KB, ref, muts)
		probs = append(probs, comparePlan(a.Plan, p)...)
	}
	if cfg.Oracle != nil {
		res, err := cegar.RunParallel([]cegar.Level{{
			Name: "assessment", Engine: eng, Mutations: analyzed, Requirements: cfg.Requirements,
		}}, cfg.Oracle, cfg.MaxCardinality, nil, 1)
		if err != nil {
			return append(probs, "reference cegar: "+err.Error())
		}
		probs = append(probs, compareVerdicts(a.Refinement, res)...)
	}
	return probs
}

// compile lowers a configuration to the EPA engine and candidate sets
// the references analyze.
func compile(cfg core.Config) (*epa.Engine, []faults.Mutation, []faults.Mutation, error) {
	m := cfg.Model.Clone()
	if err := m.RefineAll(); err != nil {
		return nil, nil, nil, err
	}
	behaviors := cfg.Behaviors
	if behaviors == nil {
		behaviors = epa.NewBehaviorLibrary(cfg.Types)
	}
	muts, err := faults.Candidates(m, cfg.Types, cfg.KB, cfg.MutationSources)
	if err != nil {
		return nil, nil, nil, err
	}
	muts = mergeMutations(muts, cfg.ExtraMutations)
	analyzed := muts
	if cfg.KB != nil && len(cfg.ActiveMitigations) > 0 {
		analyzed = mitigation.Filter(cfg.KB, muts, cfg.ActiveMitigations)
	}
	eng, err := epa.NewEngine(m, behaviors)
	return eng, muts, analyzed, err
}
