package main

import (
	"fmt"
	"time"

	"teapot/internal/fuzz"
	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/oracle"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// A workload is one benchmark shape. set-up builds an instance from the
// seed (and is timed as setup_s); the instance's call is the measured
// operation. Why each workload exists is recorded in BENCHMARK.json.
type workload struct {
	name  string
	proto string // bundled protocol the workload compiles (front-end metrics)
	shape string // input size, for the provenance line
	// symmetry marks workloads whose checker runs the static symmetry
	// prover (analysis.prove_symmetry_s is 0 elsewhere).
	symmetry bool
	setup    func(seed uint64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// call runs the measured operation once and checks its output against
	// the workload's reference; a wrong output is an error. tr is nil for
	// an untraced call; a traced call records its spans under parent.
	call(tr *tracer, parent int) (callResult, error)
	// reference runs the checks against recorded reference values that
	// sit outside the measured call.
	reference() error
	// overheadPct is the Table 1 simulated-cycle overhead of Teapot-opt
	// over the hand-written engine on this seed's traces.
	overheadPct() (float64, error)
}

// callResult is what one call reports.
type callResult struct {
	ops    float64            // work done: states, accesses or schedules
	layers map[string]float64 // per-layer metrics (traced calls)
	// pools holds per-event samples (layer barriers, schedules) that are
	// pooled over all traced calls before taking percentiles.
	pools map[string][]float64
	// after, when set, takes further per-layer probes once the traced
	// call's wall clock has stopped, so they do not count as its tracing
	// overhead.
	after func() (map[string]float64, error)
}

func workloads() []workload {
	return []workload{
		{name: "mc-ft-drop", proto: "stache-ft", shape: "stache-ft 3 nodes/1 block, drop=1, workers=1, symmetry off",
			setup: func(seed uint64) (instance, error) {
				return newMC(mcShape{nodes: 3, blocks: 1, net: "drop=1", workers: 1, sym: mc.SymmetryOff,
					states: 170738, transitions: 521346, depth: 45}, seed)
			}},
		{name: "mc-ft-sym-w2", proto: "stache-ft", symmetry: true, shape: "stache-ft 3 nodes/1 block, drop=1, workers=2, symmetry on",
			setup: func(seed uint64) (instance, error) {
				return newMC(mcShape{nodes: 3, blocks: 1, net: "drop=1", workers: 2, sym: mc.SymmetryOn,
					states: 85409, transitions: 260874, depth: 45}, seed)
			}},
		{name: "sim-table1", proto: "stache", shape: fmt.Sprintf("gauss, appbt, shallow, mp3d on %d nodes, Teapot-opt Stache", table1.nodes),
			setup: func(seed uint64) (instance, error) { return newSim(table1, seed), nil }},
		{name: "fuzz-ft", proto: "stache-ft", shape: fmt.Sprintf("stache-ft 3 nodes/2 blocks, drop=1, %d schedules of 40 ops/node", fuzzFT.schedules),
			setup: func(seed uint64) (instance, error) { return newFuzz(fuzzFT, seed) }},
	}
}

// ---- model checker -------------------------------------------------------

type mcShape struct {
	nodes, blocks int
	net           string
	workers       int // fixed: never GOMAXPROCS
	sym           mc.SymmetryMode
	// The exhaustive run's exact figures; any other output is wrong.
	states, transitions, depth int
}

type mcInstance struct {
	shape mcShape
	seed  uint64
	cfg   mc.Config
}

func newMC(s mcShape, seed uint64) (*mcInstance, error) {
	spec, err := protocols.Spec("stache-ft", s.nodes, s.blocks)
	if err != nil {
		return nil, err
	}
	if spec.Net, err = netmodel.Parse(s.net); err != nil {
		return nil, err
	}
	spec.Workers = s.workers
	spec.Symmetry = s.sym
	return &mcInstance{shape: s, seed: seed, cfg: spec.MCConfig()}, nil
}

func (m *mcInstance) gate(res *mc.Result) error {
	s := m.shape
	if res.Violation != nil {
		return fmt.Errorf("checker found %s: %s", res.Violation.Kind, res.Violation.Msg)
	}
	if res.States != s.states || res.Transitions != s.transitions || res.MaxDepth != s.depth {
		return fmt.Errorf("checker explored %d states / %d transitions / depth %d, want %d / %d / %d",
			res.States, res.Transitions, res.MaxDepth, s.states, s.transitions, s.depth)
	}
	return nil
}

func (m *mcInstance) call(tr *tracer, parent int) (callResult, error) {
	if tr == nil {
		res, err := mc.Check(m.cfg)
		if err != nil {
			return callResult{}, err
		}
		return callResult{ops: float64(res.States)}, m.gate(res)
	}

	cfg := m.cfg
	support, events := &callTimer{}, &callTimer{}
	sup, ok := cfg.Support.(interface {
		runtime.Support
		runtime.SymmetryDecl
	})
	if !ok {
		return callResult{}, fmt.Errorf("support module %T declares no symmetry", cfg.Support)
	}
	cfg.Support = tracedSupport{inner: sup, t: support}
	evs, ok := cfg.Events.(interface {
		mc.EventGen
		mc.EquivariantEvents
	})
	if !ok {
		return callResult{}, fmt.Errorf("event generator %T declares no symmetry", cfg.Events)
	}
	const samples = 128
	gen := tracedEvents{inner: evs, t: events,
		every:   int64(m.shape.states*m.shape.nodes*m.shape.blocks/samples) + 1,
		samples: make(chan string, samples)}
	cfg.Events = gen

	var gaps []float64
	var last mc.ProgressInfo
	checkSpan := tr.begin("mc.Check", parent)
	prevAt := time.Now()
	cfg.Progress = func(p mc.ProgressInfo) {
		now := time.Now()
		gaps = append(gaps, now.Sub(prevAt).Seconds())
		tr.record("mc.layer", checkSpan, prevAt, now, 0, map[string]float64{
			"depth": float64(p.Depth), "frontier": float64(p.Frontier)})
		prevAt, last = now, p
	}
	res, err := mc.Check(cfg)
	tr.end(checkSpan)
	if err != nil {
		return callResult{}, err
	}
	if err := m.gate(res); err != nil {
		return callResult{}, err
	}
	tr.aggregate("mc.EventGen.Enabled", checkSpan, events.calls.Load(), events.total())
	tr.aggregate("runtime.Support", checkSpan, support.calls.Load(), support.total())

	states := float64(res.States)
	skew := 0.0
	if last.ShardMin > 0 {
		skew = float64(last.ShardMax) / float64(last.ShardMin)
	}
	return callResult{ops: states, pools: map[string][]float64{"mc.barrier_gap_s": gaps},
		layers: map[string]float64{
			"mc.states":                  states,
			"mc.transitions":             float64(res.Transitions),
			"mc.depth":                   float64(res.MaxDepth),
			"mc.peak_frontier":           float64(res.PeakFrontier),
			"mc.visited_bytes_per_state": float64(res.VisitedBytes) / states,
			"mc.dedup_ratio":             float64(res.Transitions) / states,
			"mc.shard_skew":              skew,
			"mc.decodes_per_state":       float64(res.Decodes) / states,
			"mc.eventgen_s":              events.total().Seconds(),
			"mc.support_s":               support.total().Seconds(),
		},
		after: func() (map[string]float64, error) {
			codecSpan := tr.begin("mc.codec", parent)
			enc, dec, cl, err := m.codecTimes(gen.samples)
			tr.end(codecSpan)
			return map[string]float64{"mc.encode_us": enc, "mc.decode_us": dec, "mc.clone_us": cl}, err
		}}, nil
}

// codecTimes times World.Snapshot (encode), Config.Restore (decode) and
// World.Clone over the sampled reachable worlds, in microseconds per call.
func (m *mcInstance) codecTimes(keys chan string) (enc, dec, clone float64, err error) {
	close(keys)
	cfg := m.cfg
	var n int
	const rounds = 20
	var tEnc, tDec, tClone time.Duration
	for key := range keys {
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			w, err := cfg.Restore(key)
			t1 := time.Now()
			if err != nil {
				return 0, 0, 0, err
			}
			if _, err := w.Snapshot(); err != nil {
				return 0, 0, 0, err
			}
			t2 := time.Now()
			if _, err := w.Clone(); err != nil {
				return 0, 0, 0, err
			}
			t3 := time.Now()
			tDec += t1.Sub(t0)
			tEnc += t2.Sub(t1)
			tClone += t3.Sub(t2)
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("no reachable worlds sampled")
	}
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(n) }
	return us(tEnc), us(tDec), us(tClone), nil
}

// reference has nothing to add: every call is checked against the
// exhaustive run's exact figures.
func (m *mcInstance) reference() error { return nil }

func (m *mcInstance) overheadPct() (float64, error) { return table1Overhead(m.seed) }

// ---- simulator -----------------------------------------------------------

type simShape struct {
	nodes, iters, mp3dIters int
	// Hand-written-engine cycles on the seed-free traces, and on mp3d at
	// refSeed: a recorded reference the simulator must reproduce.
	refSeed             uint64
	refGauss, refAppbt  int64
	refShallow, refMp3d int64
}

var table1 = simShape{nodes: 32, iters: 4, mp3dIters: 256, refSeed: 44,
	refGauss: 440055, refAppbt: 23168, refShallow: 8664, refMp3d: 2746153}

type simInstance struct {
	shape  simShape
	proto  *runtime.Protocol
	sup    runtime.Support
	tags   tempest.EventTags
	traces []*sim.Workload
	want   []int64 // accesses per trace, counted from the trace itself
	hw     []int64 // hand-written cycles per trace (reference())
	teapot []int64 // Teapot-opt cycles per trace, identical on every call
}

func newSim(s simShape, seed uint64) *simInstance {
	art := stache.MustCompile(true)
	in := &simInstance{shape: s, proto: art.Protocol, sup: stache.MustSupport(art.Protocol),
		tags: tempest.ResolveTags(art.Protocol), traces: table1Traces(s, seed)}
	for _, w := range in.traces {
		var n int64
		for _, ops := range w.Trace.Ops {
			for _, op := range ops {
				if op.Kind == tempest.OpRead || op.Kind == tempest.OpWrite {
					n++
				}
			}
		}
		in.want = append(in.want, n)
	}
	return in
}

// table1Traces builds the four Table 1 traces. Only mp3d draws on the
// seed; the other three are fixed sharing patterns.
func table1Traces(s simShape, seed uint64) []*sim.Workload {
	spec := sim.WorkloadSpec{Nodes: s.nodes, Iters: s.iters, Seed: seed}
	return []*sim.Workload{sim.Gauss(spec), sim.Appbt(spec), sim.Shallow(spec), mp3d(s, seed)}
}

func mp3d(s simShape, seed uint64) *sim.Workload {
	return sim.Mp3d(sim.WorkloadSpec{Nodes: s.nodes, Iters: s.mp3dIters, Seed: seed})
}

func (in *simInstance) simConfig(w *sim.Workload, mk func(m runtime.Machine) tempest.Engine) sim.Config {
	return sim.Config{Nodes: in.shape.nodes, Blocks: w.Blocks, Cost: tempest.DefaultCost,
		Tags: in.tags, MakeEngine: mk, Program: w.Trace}
}

func (in *simInstance) handWritten(w *sim.Workload) (int64, error) {
	st, err := sim.Run(in.simConfig(w, func(m runtime.Machine) tempest.Engine {
		return stache.NewHW(in.proto, in.shape.nodes, w.Blocks, m)
	}))
	if err != nil {
		return 0, fmt.Errorf("%s/hand-written: %w", w.Name, err)
	}
	return st.Cycles, nil
}

func (in *simInstance) reference() error {
	in.hw = in.hw[:0]
	for _, w := range in.traces {
		c, err := in.handWritten(w)
		if err != nil {
			return err
		}
		in.hw = append(in.hw, c)
	}
	s := in.shape
	refMp3d, err := in.handWritten(mp3d(s, s.refSeed))
	if err != nil {
		return err
	}
	got := []int64{in.hw[0], in.hw[1], in.hw[2], refMp3d}
	want := []int64{s.refGauss, s.refAppbt, s.refShallow, s.refMp3d}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("hand-written cycles on gauss, appbt, shallow, mp3d (seed %d): %v, reference %v", s.refSeed, got, want)
		}
	}
	return nil
}

func (in *simInstance) call(tr *tracer, parent int) (callResult, error) {
	var clk *layerClock
	if tr != nil {
		clk = &layerClock{}
	}
	var accesses int64
	var tally simTally
	var runWall time.Duration
	cyc := make([]int64, len(in.traces))
	for i, w := range in.traces {
		var traced *tracedEngine
		mk := func(m runtime.Machine) tempest.Engine {
			if clk == nil {
				return tempest.NewTeapotEngine(in.proto, in.shape.nodes, w.Blocks, m, in.sup)
			}
			clk.enter(layerMakeEngine)
			traced = &tracedEngine{inner: tempest.NewTeapotEngine(in.proto, in.shape.nodes, w.Blocks, m, in.sup), clk: clk}
			clk.exit()
			return traced
		}
		start := time.Now()
		st, err := sim.Run(in.simConfig(w, mk))
		end := time.Now()
		if err != nil {
			return callResult{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		if st.Accesses != in.want[i] {
			return callResult{}, fmt.Errorf("%s: %d accesses completed, trace has %d", w.Name, st.Accesses, in.want[i])
		}
		cyc[i] = st.Cycles
		accesses += st.Accesses
		if tr == nil {
			continue
		}
		runWall += end.Sub(start)
		tally.add(st, traced, in.shape.nodes)
		tr.record("sim.Run "+w.Name, parent, start, end, 0, map[string]float64{"accesses": float64(st.Accesses), "cycles": float64(st.Cycles)})
	}
	if in.teapot == nil {
		in.teapot = cyc
	} else {
		for i := range cyc {
			if cyc[i] != in.teapot[i] {
				return callResult{}, fmt.Errorf("%s: %d cycles, an earlier call took %d", in.traces[i].Name, cyc[i], in.teapot[i])
			}
		}
	}
	res := callResult{ops: float64(accesses)}
	if tr == nil {
		return res, nil
	}
	res.layers = tally.metrics(clk, runWall)
	return res, nil
}

// simTally sums what the simulator and the traced protocol engines report
// over the runs of one call.
type simTally struct {
	deliver, event, handlers, heapConts, queueRecords int64
	cycles, messages, faultTime, nodeCycles           int64
}

func (t *simTally) add(st *tempest.Stats, eng *tracedEngine, nodes int) {
	t.deliver += eng.deliver
	t.event += eng.event
	for n := 0; n < nodes; n++ {
		c := eng.Counters(n)
		t.handlers += c.Handlers
		t.heapConts += c.HeapConts
		t.queueRecords += c.QueueRecords
	}
	t.cycles += st.Cycles
	t.messages += st.Messages
	t.faultTime += st.FaultTime
	t.nodeCycles += st.Cycles * int64(nodes)
}

// metrics reports the tally with the layer clock's self times; runWall is
// the time spent inside sim.Run, so what the engine, the oracle and engine
// construction did not take is the tempest event loop's own.
func (t *simTally) metrics(clk *layerClock, runWall time.Duration) map[string]float64 {
	engine, orc, makeEngine := clk.self[layerEngine], clk.self[layerOracle], clk.self[layerMakeEngine]
	return map[string]float64{
		"engine.self_s":         engine.Seconds(),
		"oracle.self_s":         orc.Seconds(),
		"sim.make_engine_s":     makeEngine.Seconds(),
		"tempest.loop_self_s":   (runWall - engine - orc - makeEngine).Seconds(),
		"engine.deliver_calls":  float64(t.deliver),
		"engine.event_calls":    float64(t.event),
		"runtime.handlers":      float64(t.handlers),
		"runtime.heap_conts":    float64(t.heapConts),
		"runtime.queue_records": float64(t.queueRecords),
		"sim.cycles":            float64(t.cycles),
		"sim.messages":          float64(t.messages),
		"sim.fault_time_pct":    100 * float64(t.faultTime) / float64(t.nodeCycles),
	}
}

// table1Overhead is sim_overhead_pct for the workloads that do not run
// the simulator themselves: the sim-table1 comparison at the same seed,
// run after measuring.
func table1Overhead(seed uint64) (float64, error) {
	in := newSim(table1, seed)
	if err := in.reference(); err != nil {
		return 0, err
	}
	if _, err := in.call(nil, 0); err != nil {
		return 0, err
	}
	return in.overheadPct()
}

func (in *simInstance) overheadPct() (float64, error) {
	if in.teapot == nil || len(in.hw) != len(in.teapot) {
		return 0, fmt.Errorf("overhead needs the hand-written and Teapot runs first")
	}
	ratios := make([]float64, len(in.hw))
	for i := range in.hw {
		ratios[i] = float64(in.teapot[i]) / float64(in.hw[i])
	}
	return 100 * (geomean(ratios) - 1), nil
}

// ---- fuzzer --------------------------------------------------------------

type fuzzShape struct {
	nodes, blocks, opsPerNode, schedules int
	net                                  string
	// Choice points a campaign of refSchedules at refSeed exposes.
	refSeed         uint64
	refSchedules    int
	refChoicePoints uint64
}

var fuzzFT = fuzzShape{nodes: 3, blocks: 2, opsPerNode: 40, schedules: 500, net: "drop=1",
	refSeed: 1, refSchedules: 500, refChoicePoints: 5658}

type fuzzInstance struct {
	shape fuzzShape
	seed  uint64
	f     *fuzz.Fuzzer
	steps uint64 // choice points of one campaign, identical on every call
}

func newFuzzer(s fuzzShape, seed uint64, schedules int) (*fuzz.Fuzzer, error) {
	net, err := netmodel.Parse(s.net)
	if err != nil {
		return nil, err
	}
	return fuzz.New(fuzz.Config{Proto: "stache-ft", Nodes: s.nodes, Blocks: s.blocks, Net: net,
		Schedules: schedules, OpsPerNode: s.opsPerNode, Seed: seed})
}

func newFuzz(s fuzzShape, seed uint64) (*fuzzInstance, error) {
	f, err := newFuzzer(s, seed, s.schedules)
	if err != nil {
		return nil, err
	}
	return &fuzzInstance{shape: s, seed: seed, f: f}, nil
}

func campaignErr(res *fuzz.Result, schedules int) error {
	if res.Failure != nil {
		rep := res.Failure.Report
		if rep.Violation != nil {
			return fmt.Errorf("schedule %d: %v", res.Ran, rep.Violation)
		}
		return fmt.Errorf("schedule %d: %v", res.Ran, rep.RunErr)
	}
	if res.Ran != schedules {
		return fmt.Errorf("ran %d schedules, want %d", res.Ran, schedules)
	}
	return nil
}

func (in *fuzzInstance) reference() error {
	s := in.shape
	f, err := newFuzzer(s, s.refSeed, s.refSchedules)
	if err != nil {
		return err
	}
	res, err := f.Fuzz()
	if err != nil {
		return err
	}
	if err := campaignErr(res, s.refSchedules); err != nil {
		return err
	}
	if res.Steps != s.refChoicePoints {
		return fmt.Errorf("reference campaign exposed %d choice points, recorded %d", res.Steps, s.refChoicePoints)
	}
	return nil
}

func (in *fuzzInstance) call(tr *tracer, parent int) (callResult, error) {
	if tr != nil {
		return in.drive(tr, parent)
	}
	res, err := in.f.Fuzz()
	if err != nil {
		return callResult{}, err
	}
	if err := campaignErr(res, in.shape.schedules); err != nil {
		return callResult{}, err
	}
	if err := in.sameSteps(res.Steps); err != nil {
		return callResult{}, err
	}
	return callResult{ops: float64(res.Ran)}, nil
}

func (in *fuzzInstance) sameSteps(steps uint64) error {
	if in.steps == 0 {
		in.steps = steps
	} else if steps != in.steps {
		return fmt.Errorf("campaign exposed %d choice points, an earlier one %d", steps, in.steps)
	}
	return nil
}

// drive runs the campaign's schedules itself, the way Fuzzer.Fuzz does
// (same per-schedule seeds, recorder, workload and oracle), so each
// layer's share can be timed. Its choice points must equal the campaign's.
func (in *fuzzInstance) drive(tr *tracer, parent int) (callResult, error) {
	s := in.shape
	spec, prof := in.f.Spec(), in.f.Profile()
	clk := &layerClock{}
	var steps uint64
	var tally simTally
	var progGen, runWall time.Duration
	perSchedule := make([]float64, 0, s.schedules)
	campaign := tr.begin("fuzz.campaign", parent)
	for i := 0; i < s.schedules; i++ {
		start := time.Now()
		rec := fuzz.NewRecorder(subSeed(in.f.Seed(), uint64(2*i)), 0)
		prog := fuzz.RandomProgram(fuzz.WorkloadOpts{Nodes: s.nodes, Blocks: s.blocks,
			OpsPerNode: s.opsPerNode, Seed: subSeed(in.f.Seed(), uint64(2*i+1)), Evict: prof.Evict, Sync: prof.Sync})
		genEnd := time.Now()
		checker := oracle.New(oracle.Config{Nodes: s.nodes, Blocks: s.blocks, HomeOf: spec.HomeOf, Inv: prof.Inv})
		cfg := spec.SimConfig()
		mk := cfg.MakeEngine
		var eng *tracedEngine
		cfg.MakeEngine = func(m runtime.Machine) tempest.Engine {
			clk.enter(layerMakeEngine)
			eng = &tracedEngine{inner: mk(m), clk: clk}
			clk.exit()
			return eng
		}
		cfg.Program = prog
		cfg.Obs = tracedSink{inner: checker, clk: clk}
		cfg.Sched = rec
		cfg.ObsMemory = true
		cfg.MaxEvents = 1_000_000
		st, err := sim.Run(cfg)
		clk.enter(layerOracle)
		v := checker.Finish()
		clk.exit()
		end := time.Now()
		if err != nil {
			return callResult{}, fmt.Errorf("schedule %d: %w", i+1, err)
		}
		if v != nil {
			return callResult{}, fmt.Errorf("schedule %d: %v", i+1, v)
		}
		steps += rec.Steps()
		tally.add(st, eng, s.nodes)
		progGen += genEnd.Sub(start)
		runWall += end.Sub(genEnd)
		perSchedule = append(perSchedule, end.Sub(start).Seconds())
	}
	tr.end(campaign)
	if err := in.sameSteps(steps); err != nil {
		return callResult{}, fmt.Errorf("traced drive: %w", err)
	}
	layers := tally.metrics(clk, runWall)
	layers["fuzz.choice_points"] = float64(steps)
	layers["fuzz.program_gen_s"] = progGen.Seconds()
	tr.aggregate("fuzz.RandomProgram", campaign, int64(s.schedules), progGen)
	tr.aggregate("tempest.Engine", campaign, clk.calls[layerEngine], clk.self[layerEngine])
	tr.aggregate("oracle", campaign, clk.calls[layerOracle], clk.self[layerOracle])
	tr.aggregate("sim.MakeEngine", campaign, clk.calls[layerMakeEngine], clk.self[layerMakeEngine])
	return callResult{ops: float64(s.schedules), layers: layers,
		pools: map[string][]float64{"fuzz.schedule_s": perSchedule}}, nil
}

func (in *fuzzInstance) overheadPct() (float64, error) { return table1Overhead(in.seed) }

// subSeed derives the i-th stream seed from a campaign's master seed, as
// the fuzzer does (splitmix64 seeded from the master and the index).
func subSeed(seed, i uint64) uint64 {
	z := seed ^ (i+1)*0x9e3779b97f4a7c15
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
