package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"teapot/internal/mc"
)

// Tiny shapes with their recorded reference outputs: the self-check runs
// every workload kind end to end in seconds.
var (
	tinyMC = mcShape{nodes: 2, blocks: 1, net: "drop=1", workers: 2, sym: mc.SymmetryOn,
		states: 554, transitions: 1018, depth: 23}
	tinySim = simShape{nodes: 4, iters: 1, mp3dIters: 4, refSeed: 44,
		refGauss: 3274, refAppbt: 4654, refShallow: 2166, refMp3d: 30125}
	tinyFuzz = fuzzShape{nodes: 3, blocks: 2, opsPerNode: 10, schedules: 20, net: "drop=1",
		refSeed: 1, refSchedules: 20, refChoicePoints: 222}
)

func tinyWorkloads() []workload {
	return []workload{
		{name: "mc", proto: "stache-ft", symmetry: true,
			setup: func(seed uint64) (instance, error) { return newMC(tinyMC, seed) }},
		{name: "sim", proto: "stache",
			setup: func(seed uint64) (instance, error) { return newSim(tinySim, seed), nil }},
		{name: "fuzz", proto: "stache-ft",
			setup: func(seed uint64) (instance, error) { return newFuzz(tinyFuzz, seed) }},
	}
}

// TestMetricsMatchBenchmarkJSON pins the printed metric names and units,
// and the workload names, to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, declared []struct{ Name, Unit string }) {
		t.Helper()
		if len(defs) != len(declared) {
			t.Fatalf("%s: %d metrics printed, %d declared", what, len(defs), len(declared))
		}
		for i, d := range defs {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s[%d]: printed %s (%s), declared %s (%s)", what, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(names(), ","), strings.Join(declared, ","); got != want {
		t.Errorf("workloads %s, declared %s", got, want)
	}
}

// TestRunReportsEveryMetric runs each workload kind at a tiny size,
// untraced and traced, and checks the result line's shape and gate.
func TestRunReportsEveryMetric(t *testing.T) {
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			prov := &provenance{Seed: 7}
			res, err := run(&w, prov, 0, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2+minCalls {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestGateRejectsWrongOutput checks that an output differing from the
// recorded reference is reported as wrong.
func TestGateRejectsWrongOutput(t *testing.T) {
	badMC := tinyMC
	badMC.states++
	m, err := newMC(badMC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.call(nil, 0); err == nil {
		t.Error("mc: wrong state count accepted")
	}

	badSim := tinySim
	badSim.refMp3d++
	if err := newSim(badSim, 1).reference(); err == nil {
		t.Error("sim: wrong hand-written cycles accepted")
	}

	badFuzz := tinyFuzz
	badFuzz.refChoicePoints++
	f, err := newFuzz(badFuzz, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reference(); err == nil {
		t.Error("fuzz: wrong choice-point count accepted")
	}
}

// TestSpansWritten checks that a traced run leaves its spans on disk.
func TestSpansWritten(t *testing.T) {
	dir := t.TempDir()
	w := tinyWorkloads()[2]
	if _, err := run(&w, &provenance{Workload: w.name, Seed: 3}, 0, true, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fuzz-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Spans []span }
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) == 0 || out.Spans[0].Parent != 0 {
		t.Fatalf("spans %+v, want a root span first", out.Spans)
	}
	for _, s := range out.Spans[1:] {
		if s.Parent < 1 || s.Parent >= s.ID || s.End < s.Start {
			t.Errorf("span %+v: bad parent or interval", s)
		}
	}
}
