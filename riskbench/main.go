// Command riskbench is the cpsrisk benchmark: it drives the assessment
// pipeline from outside through its Go APIs on four seeded workloads,
// checks every output against an independent reference, and prints the
// end-to-end metrics (tracing off) or the per-layer metrics of a traced
// replay (tracing on).
//
// Run it from the repository root through riskbench/run.sh, which builds
// this module and passes the flags on:
//
//	bash riskbench/run.sh --workload plant-optimize --seed 1 --seconds 30 --trace 0
//
// Human-readable lines (run facts, every metric with its unit and sample
// count) come first; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one benchmark invocation reports.
type outcome struct {
	attempted, failed int
	// problems names every failed check; correct is len(problems) == 0.
	problems []string
	// gated are the metrics of the final JSON line.
	gated map[string]metric
	// notes are extra metrics printed on the human-readable lines only:
	// workload-specific figures the final line cannot carry on every
	// workload (see BENCHMARK.json).
	notes map[string]metric
}

func newOutcome() *outcome {
	return &outcome{gated: map[string]metric{}, notes: map[string]metric{}}
}

func (o *outcome) set(name string, v float64, unit string)  { o.gated[name] = metric{v, unit} }
func (o *outcome) note(name string, v float64, unit string) { o.notes[name] = metric{v, unit} }
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark input set. why records the reason it was
// chosen: which layer it stresses and what a change there would move.
// procs, when nonzero, is the GOMAXPROCS the workload runs with.
type workload struct {
	name, why string
	procs     int
	run       func(seed int64, seconds time.Duration, trace bool) (*outcome, error)
}

var workloads = []workload{
	{
		name: "plant-optimize",
		why: "The shipped sme-plant at cardinality 4 with the optimiser, as " +
			"`riskassess -maxcard 4 -optimize`: optimize.Optimal + MultiPhase take ~99% " +
			"of each assessment and the sweep ~1%, so an optimiser change shows here and " +
			"nowhere else. maxcard 4 rather than -1 keeps >=100 assessments per run for p90. " +
			"It runs on one P (GOMAXPROCS 1): the optimiser is single-threaded, and with a second " +
			"P the Go GC's background workers wake the otherwise idle second vCPU in each of the " +
			"several GC cycles an assessment triggers (28 MB allocated each), so on a shared host " +
			"each wake-up's scheduling delay (steal) landed in the verdict and p90 swung by up to " +
			"2.4x between identical runs.",
		procs: 1,
		run:   runPlantOptimize,
	},
	{
		name: "fleet-sweep",
		why: "Seeded generated IT/OT plants (24-26 candidates, 13k-18k scenarios at cardinality 4), " +
			"pruned native sweep, no optimiser: the hazard sweep (enumerate, execute, prune, " +
			"record rows) and rendering those rows take ~95% of each assessment and the optimiser " +
			"none, so sweep bookkeeping, engine and row-format changes show here.",
		run: runFleetSweep,
	},
	{
		name: "casestudy-asp",
		why: "The paper's section VII water tank at cardinality 3 on the ASP path with CEGAR " +
			"against the plant oracle: the only workload that grounds and solves (logic/solver) " +
			"and validates (cegar), guarding the ASP path. It runs on one P, like plant-optimize: " +
			"grounding and solving are single-threaded (one solver engine), and at two Ps the GC " +
			"and the two CEGAR workers waking the second vCPU moved p90 from 50 to 86 ms with the " +
			"host's steal, where one P held it at 60-63 ms. The validation pool keeps its size of 2, " +
			"interleaved on the one P, so a change to validation parallelism does not show here.",
		procs: 1,
		run:   runCaseStudyASP,
	},
	{
		name: "served-edits",
		why: "An in-process riskserve over loopback HTTP with two closed-loop tenants " +
			"cycling resubmits, metadata edits and behavioural edits of small plants: the " +
			"HTTP/queue envelope and the artifact cache (warm, delta, cold, evictions) dominate.",
		run: runServedEdits,
	},
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("riskbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 30, "measurement time")
	trace := fs.Int("trace", 0, "1 = traced per-layer replay, 0 = end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "riskbench: want --workload one of %v, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat(typesPath); err != nil {
		fmt.Fprintln(os.Stderr, "riskbench: run from the repository root:", err)
		return 2
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	printFacts(w, *seed, *trace)
	out, err := w.run(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riskbench:", err)
		return 1
	}
	printOutcome(out)
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func printFacts(w *workload, seed int64, trace int) {
	f := runFacts()
	fmt.Printf("# workload %s  seed %d  trace %d\n", w.name, seed, trace)
	fmt.Printf("# why: %s\n", w.why)
	fmt.Printf("# nproc %d  GOMAXPROCS %d  go %s  commit %s\n", f.nproc, f.gomaxprocs, f.goVersion, f.commit)
}

func printOutcome(o *outcome) {
	all := map[string]metric{}
	for k, v := range o.notes {
		all[k] = v
	}
	for k, v := range o.gated {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, all[k].Value, all[k].Unit)
	}
	fmt.Printf("attempted %d  failed %d\n", o.attempted, o.failed)
	for i, p := range o.problems {
		if i == 20 {
			fmt.Printf("FAILED CHECK: ... and %d more\n", len(o.problems)-i)
			break
		}
		fmt.Println("FAILED CHECK:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0 && o.failed == 0, o.attempted, o.failed, o.gated})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}
