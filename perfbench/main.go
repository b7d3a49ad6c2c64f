// Command perfbench is the repository benchmark. It runs one workload
// against the real runtime, checks the workload's outputs, and prints
// every metric by name with its unit; the last line of its standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload session-churn --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, and reports the per-layer
// metrics. README.md in this directory describes the workloads and the
// metric → layer → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one benchmark workload. setup builds the world and
// deploys; warmup exercises it untimed; run measures a timed phase;
// check verifies the outputs of everything run so far; digest renders
// the seed-determined checked outputs, which the traced and untraced
// runs must agree on.
type workload interface {
	unit() string
	setup() error
	warmup() error
	run(d time.Duration) *phase
	check() error
	digest() string
	// layers reports per-layer metrics from the traced phase's spans;
	// path attributes the main operation's blocking path to layers.
	layers(tree *spanTree) map[string]float64
	path(tree *spanTree) (map[string]float64, samples)
	close()
}

// spec of one workload: its constructor and the names of its two timed
// operations and its rate, as the paper's metrics call them.
type workloadSpec struct {
	make             func(seed int64, t *tracer) workload
	main, side, rate string
}

var workloads = map[string]workloadSpec{
	"mail-fig6": {
		make: func(seed int64, t *tracer) workload { return newMailFig6(seed, t) },
		main: "send", side: "recv", rate: "mail_ops_per_s",
	},
	"session-churn": {
		make: func(seed int64, t *tracer) workload { return newSessionChurn(seed, t) },
		main: "first_reply", side: "follow_up", rate: "sessions_per_s",
	},
	"fleet-waves": {
		make: func(seed int64, t *tracer) workload { return newFleetWaves(seed, t) },
		main: "wave", side: "cycle", rate: "waves_per_s",
	},
}

// setupRuns is how many times a run builds and warms up its world;
// setup_s is the median, and the last world is the one measured.
const setupRuns = 3

// driftBound is how far the first and second half of a timed phase may
// disagree on the main operation's median before the run is flagged as
// drifting.
const driftBound = 0.10

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload: mail-fig6, session-churn or fleet-waves")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload mail-fig6|session-churn|fleet-waves --seed N --seconds S --trace 0|1")
		return 2
	}
	prov := newProvenance(*name, *seed)
	fmt.Printf("# provenance %s\n", prov)

	dur := time.Duration(*seconds) * time.Second
	var res *result
	var report []string
	var err error
	if *traced == 0 {
		res, report, err = runEndToEnd(spec, *seed, dur)
	} else {
		spanPath := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-spans.csv", *name, *seed))
		res, report, err = runTraced(spec, *seed, dur, spanPath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, line := range report {
		fmt.Println(line)
	}
	prov.Attempted, prov.Failed = res.Attempted, res.Failed
	prov.Succeeded = res.Attempted - res.Failed
	if err := writeResult(*outDir, *name, *seed, *traced, prov, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result file: %v\n", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// runEndToEnd measures the end-to-end metrics, untraced.
func runEndToEnd(spec workloadSpec, seed int64, dur time.Duration) (*result, []string, error) {
	var setups samples
	var w workload
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
		}
		w = spec.make(seed, nil)
		t0 := time.Now()
		if err := setupAndWarm(w); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	heap := liveHeapMB()
	p := w.run(dur)
	checkErr := w.check()
	w.close()

	res := &result{Correct: checkErr == nil, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricOut{
		"setup_s":       {setups.p50(), "s"},
		"setup_heap_mb": {heap, "MB"},
		"main_p50_ms":   {p.main.p50(), "ms"},
		"main_p90_ms":   {p.main.p90(), "ms"},
		"side_p50_ms":   {p.side.p50(), "ms"},
		"side_p90_ms":   {p.side.p90(), "ms"},
		"rate_per_s":    {p.rate, "1/s"},
	}}
	report := []string{
		fmt.Sprintf("setup_s %.4f s (median of %d set-ups: %.4f)", setups.p50(), setupRuns, []float64(setups)),
		fmt.Sprintf("setup_heap_mb %.2f MB", heap),
		fmt.Sprintf("%s_p50_ms %.4f ms  %s_p90_ms %.4f ms  (n=%d)", spec.main, p.main.p50(), spec.main, p.main.p90(), len(p.main)),
		fmt.Sprintf("%s_p50_ms %.4f ms  %s_p90_ms %.4f ms  (n=%d)", spec.side, p.side.p50(), spec.side, p.side.p90(), len(p.side)),
		fmt.Sprintf("%s %.3f 1/s  (%d %ss in %.2f s)", spec.rate, p.rate, p.units, w.unit(), p.elapsed.Seconds()),
		fmt.Sprintf("error_rate %.6f  (attempted %d, failed %d)", ratio(float64(p.failed), float64(p.attempted)), p.attempted, p.failed),
	}
	report = append(report, driftLine(p))
	if checkErr != nil {
		report = append(report, "CHECK FAILED: "+checkErr.Error())
	} else {
		report = append(report, "checks: ok")
	}
	return res, report, nil
}

func driftLine(p *phase) string {
	d := p.main.halvesDrift()
	verdict := "steady"
	if d > driftBound {
		verdict = fmt.Sprintf("DRIFTING (bound %.0f%%)", driftBound*100)
	}
	return fmt.Sprintf("halves_drift %.2f%% of the main median between the first and second half: %s", d*100, verdict)
}

// perLayer lists every per-layer metric with its unit. A workload
// reports 0 for a layer that does no work in its timed phase.
var perLayer = []struct{ name, unit string }{
	{"mail.client_self_ms", "ms"},
	{"mail.relay_self_ms", "ms"},
	{"mail.view_self_ms", "ms"},
	{"mail.encryptor_self_ms", "ms"},
	{"mail.decryptor_self_ms", "ms"},
	{"mail.primary_self_ms", "ms"},
	{"mail.first_op_ms", "ms"},
	{"transport.hop_rtt_p50_ms", "ms"},
	{"transport.hops_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"transport.frames_per_op", "count"},
	{"transport.write_batch_p50", "frames"},
	{"transport.queue_wait_p50_ms", "ms"},
	{"coherence.flushes_per_send", "count"},
	{"coherence.replicas_updated_per_send", "count"},
	{"planner.plan_ms", "ms"},
	{"planner.note_ms", "ms"},
	{"planner.mappings_per_plan", "count"},
	{"planner.rejected_per_plan", "count"},
	{"netmodel.route_hit_rate", "ratio"},
	{"solver.propagations_per_plan", "count"},
	{"smock.execute_ms", "ms"},
	{"smock.activate_ms", "ms"},
	{"smock.activations_per_session", "count"},
	{"smock.bind_ms", "ms"},
	{"smock.teardown_ms", "ms"},
	{"netmon.report_ms", "ms"},
	{"fleet.replan_ms", "ms"},
	{"fleet.plan_computes_per_wave", "count"},
	{"fleet.memo_hit_rate", "ratio"},
	{"fleet.route_lookups_per_wave", "count"},
	{"fleet.cutovers_per_wave", "count"},
	{"fleet.unchanged_per_wave", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.path_self_sum_p50_ms", "ms"},
	{"trace.top_self_share", "ratio"},
	{"bench.halves_drift_pct", "%"},
}

// setupAndWarm prepares a workload for its timed phase, closing it on
// failure.
func setupAndWarm(w workload) error {
	if err := w.setup(); err != nil {
		w.close()
		return fmt.Errorf("set-up: %w", err)
	}
	if err := w.warmup(); err != nil {
		w.close()
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// runTraced runs the workload untraced for half the time, reading the
// program's counters, then builds a traced world and runs it for the
// other half, timing each layer from outside.
func runTraced(spec workloadSpec, seed int64, dur time.Duration, spanPath string) (*result, []string, error) {
	half := dur / 2
	w := spec.make(seed, nil)
	if err := setupAndWarm(w); err != nil {
		return nil, nil, fmt.Errorf("untraced run: %w", err)
	}
	pa := w.run(half)
	errA := w.check()
	digestA := w.digest()
	w.close()

	t := newTracer()
	wt := spec.make(seed, t)
	if err := setupAndWarm(wt); err != nil {
		return nil, nil, fmt.Errorf("traced run: %w", err)
	}
	t.on.Store(true)
	pb := wt.run(half)
	t.on.Store(false)
	errB := wt.check()
	digestB := wt.digest()
	tree := buildTree(t.snapshot())
	layers := wt.layers(tree)
	path, pathSums := wt.path(tree)
	wt.close()
	if err := t.write(spanPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}

	values := map[string]float64{}
	for k, v := range pa.counters {
		values[k] = v
	}
	for k, v := range layers {
		values[k] = v
	}
	untraced, tracedP50 := pa.main.p50(), pb.main.p50()
	values["trace.untraced_p50_ms"] = untraced
	values["trace.traced_p50_ms"] = tracedP50
	values["trace.overhead_pct"] = 100 * (ratio(tracedP50, untraced) - 1)
	values["trace.path_self_sum_p50_ms"] = pathSums.p50()
	values["bench.halves_drift_pct"] = 100 * pa.main.halvesDrift()

	// The blocking path of the main operation, largest self time first.
	type layerTime struct {
		name string
		v    float64
	}
	var ranked []layerTime
	total := 0.0
	for k, v := range path {
		ranked = append(ranked, layerTime{k, v})
		total += v
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].v > ranked[j].v })
	if len(ranked) > 0 {
		values["trace.top_self_share"] = ratio(ranked[0].v, total)
	}

	res := &result{
		Attempted: pa.attempted + pb.attempted,
		Failed:    pa.failed + pb.failed,
		Metrics:   map[string]metricOut{},
	}
	var report []string
	for _, m := range perLayer {
		res.Metrics[m.name] = metricOut{values[m.name], m.unit}
		report = append(report, fmt.Sprintf("%s %.6g %s", m.name, values[m.name], m.unit))
	}
	report = append(report,
		fmt.Sprintf("traced %ss: %d, untraced: %d", wt.unit(), pb.units, pa.units),
		fmt.Sprintf("blocking path of %s, self time per %s (sum %.4f ms; untraced %s_p50_ms %.4f, traced %.4f, overhead %.1f%%):",
			spec.main, wt.unit(), total, spec.main, untraced, tracedP50, values["trace.overhead_pct"]))
	for _, l := range ranked {
		report = append(report, fmt.Sprintf("  %-28s %9.4f ms  %5.1f%%", l.name, l.v, 100*ratio(l.v, total)))
	}
	report = append(report, driftLine(pa))
	var errs []string
	if errA != nil {
		errs = append(errs, "untraced run: "+errA.Error())
	}
	if errB != nil {
		errs = append(errs, "traced run: "+errB.Error())
	}
	if digestA != digestB {
		errs = append(errs, "traced and untraced runs checked different outputs")
	}
	res.Correct = len(errs) == 0
	if res.Correct {
		report = append(report, "checks: ok (traced and untraced outputs identical)")
	} else {
		report = append(report, "CHECK FAILED: "+joinErrs(errs).Error())
	}
	return res, report, nil
}
