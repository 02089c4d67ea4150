// Perfbench is the repository's benchmark: one process that sets up one
// workload, runs its measured call in a closed loop (one call at a time)
// for a fixed time, checks every output against a reference, and prints
// every metric by name with its unit. The last line of standard output is
// the result as one JSON object.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload mc-ft-drop --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates untraced and traced calls and reports the per-layer metrics,
// including the tracing overhead, and writes the traced spans to a file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"teapot/internal/analysis"
	"teapot/internal/cont"
	"teapot/internal/core"
	"teapot/internal/lower"
	"teapot/internal/parser"
	"teapot/internal/protocols"
	"teapot/internal/sema"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"sim_overhead_pct", "%"},
}

// perLayer are the traced run's metrics. A layer the workload never
// enters reports 0.
var perLayer = []metricDef{
	{"front.parse_s", "s"}, {"front.sema_s", "s"}, {"front.lower_s", "s"}, {"front.cont_s", "s"},
	{"cont.dynamic_sites", "count"}, {"cont.constant_sites", "count"},
	{"analysis.prove_symmetry_s", "s"},
	{"mc.states", "count"}, {"mc.transitions", "count"}, {"mc.depth", "count"}, {"mc.peak_frontier", "count"},
	{"mc.visited_bytes_per_state", "B"}, {"mc.dedup_ratio", "ratio"}, {"mc.shard_skew", "ratio"},
	{"mc.decodes_per_state", "ratio"},
	{"mc.barrier_gap_p50_s", "s"}, {"mc.barrier_gap_p90_s", "s"},
	{"mc.eventgen_s", "s"}, {"mc.support_s", "s"},
	{"mc.encode_us", "us"}, {"mc.decode_us", "us"}, {"mc.clone_us", "us"},
	{"proc.cpu_util", "ratio"},
	{"gc.alloc_bytes_per_op", "B"}, {"gc.mallocs_per_op", "count"}, {"gc.cycles", "count"}, {"gc.cpu_s", "s"},
	{"engine.self_s", "s"}, {"tempest.loop_self_s", "s"},
	{"engine.deliver_calls", "count"}, {"engine.event_calls", "count"},
	{"runtime.handlers", "count"}, {"runtime.heap_conts", "count"}, {"runtime.queue_records", "count"},
	{"sim.cycles", "count"}, {"sim.messages", "count"}, {"sim.fault_time_pct", "%"}, {"sim.make_engine_s", "s"},
	{"fuzz.choice_points", "count"}, {"fuzz.schedule_p50_s", "s"}, {"fuzz.schedule_p99_s", "s"},
	{"fuzz.program_gen_s", "s"}, {"oracle.self_s", "s"},
	{"trace.untraced_wall_s", "s"}, {"trace.traced_wall_s", "s"}, {"trace.overhead_s", "s"},
}

// poolQuantiles turns sample pools gathered over all traced calls into
// percentile metrics: the median, and the highest percentile that keeps
// at least ten samples beyond it at the pool sizes a run gathers.
var poolQuantiles = map[string][]struct {
	metric string
	q      float64
}{
	"mc.barrier_gap_s": {{"mc.barrier_gap_p50_s", 0.5}, {"mc.barrier_gap_p90_s", 0.9}},
	"fuzz.schedule_s":  {{"fuzz.schedule_p50_s", 0.5}, {"fuzz.schedule_p99_s", 0.99}},
}

const (
	setupReps = 51 // set-ups per run; setup_s is their median
	minCalls  = 3  // measured calls per run (per kind, when traced) at least
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type provenance struct {
	Workload   string `json:"workload"`
	Shape      string `json:"shape"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	SetupRuns  int    `json:"setup_runs"`
	WarmupRuns int    `json:"warmup_runs"`
	Runs       int    `json:"runs"`
	TracedRuns int    `json:"traced_runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		commit  = flag.String("commit", "unknown", "commit the binary was built from")
		spans   = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(names(), "|"))
		os.Exit(2)
	}
	prov := provenance{Workload: w.name, Shape: w.shape, Seed: *seed, Trace: *trace == 1, Seconds: *seconds,
		GoVersion: goruntime.Version(), GOMAXPROCS: goruntime.GOMAXPROCS(0), NumCPU: goruntime.NumCPU(),
		Commit: *commit}
	res, err := run(w, &prov, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	pj, _ := json.Marshal(prov)
	fmt.Println("provenance", string(pj))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-28s %-14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func names() []string {
	var ns []string
	for _, w := range workloads() {
		ns = append(ns, w.name)
	}
	return ns
}

// run measures one workload. An error means the benchmark could not run
// at all; a wrong output is counted as a failed operation instead.
func run(w *workload, prov *provenance, measure time.Duration, traced bool, spanDir string) (*result, error) {
	res := &result{Metrics: map[string]metricValue{}}
	var tr *tracer
	var root int
	if traced {
		tr = newTracer()
		root = tr.begin("perfbench "+w.name, 0)
	}
	gate := func(err error) {
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: wrong output:", err)
		}
	}

	// Set-up is repeated and reported as a median: one set-up takes a
	// few milliseconds, too short for a single timing to repeat.
	var setups []float64
	var inst instance
	setupStart := time.Now()
	for i := 0; i < setupReps; i++ {
		goruntime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(prov.Seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	prov.SetupRuns = setupReps
	if traced {
		tr.record("setup", root, setupStart, time.Now(), setupReps, nil)
	}
	gate(inst.reference())

	// The first call of a process runs slow (page faults, cold caches,
	// heap growth); it is checked but not measured.
	if err := settle(); err != nil {
		return nil, err
	}
	_, err := inst.call(nil, 0)
	gate(err)
	prov.WarmupRuns = 1

	var walls, rates, rss, tracedWalls []float64
	var cpuUtil, allocs, mallocs, gcs, gcCPU []float64
	layers := map[string][]float64{}
	pools := map[string][]float64{}
	start := time.Now()
	for time.Since(start) < measure || len(walls) < minCalls || (traced && len(tracedWalls) < minCalls) {
		if err := settle(); err != nil {
			return nil, err
		}
		before := sampleProc()
		t0 := time.Now()
		out, err := inst.call(nil, 0)
		wall := time.Since(t0).Seconds()
		d := before.to(sampleProc())
		peak, perr := peakRSSMiB()
		if perr != nil {
			return nil, perr
		}
		gate(err)
		walls = append(walls, wall)
		rates = append(rates, out.ops/wall)
		rss = append(rss, peak)
		if out.ops > 0 {
			cpuUtil = append(cpuUtil, d.cpu/wall)
			allocs = append(allocs, float64(d.alloc)/out.ops)
			mallocs = append(mallocs, float64(d.mallocs)/out.ops)
			gcs = append(gcs, float64(d.gcs))
			gcCPU = append(gcCPU, d.gcCPU)
		}
		if !traced {
			continue
		}
		goruntime.GC()
		callSpan := tr.begin("call", root)
		t0 = time.Now()
		out, err = inst.call(tr, callSpan)
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		tr.end(callSpan)
		gate(err)
		if err == nil && out.after != nil {
			more, err := out.after()
			gate(err)
			for k, v := range more {
				out.layers[k] = v
			}
		}
		for k, v := range out.layers {
			layers[k] = append(layers[k], v)
		}
		for k, v := range out.pools {
			pools[k] = append(pools[k], v...)
		}
	}
	prov.Runs = len(walls)
	prov.TracedRuns = len(tracedWalls)
	fmt.Fprintf(os.Stderr, "perfbench: per-call wall_s %.4g\n", walls)
	overhead, err := inst.overheadPct()
	gate(err)

	if !traced {
		put := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
		put("setup_s", median(setups))
		put("wall_s", median(walls))
		put("ops_per_s", median(rates))
		put("peak_rss_mib", median(rss))
		put("sim_overhead_pct", overhead)
	} else {
		vals := map[string]float64{}
		for k, v := range layers {
			vals[k] = median(v)
		}
		for pool, qs := range poolQuantiles {
			for _, q := range qs {
				vals[q.metric] = quantile(pools[pool], q.q)
			}
		}
		vals["proc.cpu_util"] = median(cpuUtil)
		vals["gc.alloc_bytes_per_op"] = median(allocs)
		vals["gc.mallocs_per_op"] = median(mallocs)
		vals["gc.cycles"] = median(gcs)
		vals["gc.cpu_s"] = median(gcCPU)
		vals["trace.untraced_wall_s"] = median(walls)
		vals["trace.traced_wall_s"] = median(tracedWalls)
		// On fuzz-ft the traced call is the benchmark's own re-drive of
		// the campaign (fuzzInstance.drive), not Fuzzer.Fuzz, so there the
		// overhead also holds the difference between the two loops.
		vals["trace.overhead_s"] = median(tracedWalls) - median(walls)
		fe, err := frontEnd(w.proto, tr, root)
		if err != nil {
			return nil, err
		}
		for k, v := range fe {
			vals[k] = v
		}
		if w.symmetry {
			if vals["analysis.prove_symmetry_s"], err = proveSymmetry(w.proto, tr, root); err != nil {
				return nil, err
			}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		tr.end(root)
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", w.name, prov.Seed))
		if err := tr.write(path, prov); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("unknown metric " + name)
}

// frontEnd times the compiler's stages on the workload's protocol source
// (median of setupReps compilations) and reports the continuation pass's
// site classification.
func frontEnd(proto string, tr *tracer, parent int) (map[string]float64, error) {
	e, ok := protocols.Lookup(proto)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", proto)
	}
	cfg := e.Config
	var parse, check, low, transform []float64
	var stats cont.Stats
	span := tr.begin("front", parent)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		prog, err := parser.Parse(cfg.Name, cfg.Source)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sp, err := sema.Check(prog)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		irp := lower.Lower(sp)
		t3 := time.Now()
		cont.Transform(irp, cfg.Options())
		t4 := time.Now()
		parse = append(parse, t1.Sub(t0).Seconds())
		check = append(check, t2.Sub(t1).Seconds())
		low = append(low, t3.Sub(t2).Seconds())
		transform = append(transform, t4.Sub(t3).Seconds())
		stats = cont.Summarize(irp)
	}
	tr.end(span)
	return map[string]float64{
		"front.parse_s": median(parse), "front.sema_s": median(check),
		"front.lower_s": median(low), "front.cont_s": median(transform),
		"cont.dynamic_sites": float64(stats.Dynamic), "cont.constant_sites": float64(stats.Constant),
	}, nil
}

// proveSymmetry times the static symmetry prover the checker runs before
// a reduced exploration (median of setupReps proofs).
func proveSymmetry(proto string, tr *tracer, parent int) (float64, error) {
	e, ok := protocols.Lookup(proto)
	if !ok {
		return 0, fmt.Errorf("unknown protocol %q", proto)
	}
	art, err := core.Compile(e.Config)
	if err != nil {
		return 0, err
	}
	span := tr.begin("analysis.ProveSymmetry", parent)
	var ts []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		analysis.ProveSymmetry(art.Protocol)
		ts = append(ts, time.Since(t0).Seconds())
	}
	tr.end(span)
	return median(ts), nil
}
