package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"teapot/internal/mc"
	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/tempest"
	"teapot/internal/vm"
)

// span is one interval at a layer boundary the benchmark calls into.
// Boundaries crossed millions of times per call are not one span per
// crossing: they become one aggregated span whose Count says how many
// crossings it stands for and whose duration is their summed time.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = root
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"` // since the tracer's epoch
	End    float64            `json:"end_s"`
	Count  int64              `json:"count,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory for one benchmark process and writes them
// out when the benchmark ends. It is used from the main goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.epoch).Seconds() }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.at(time.Now())})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = t.at(time.Now()) }

// record adds a closed span covering [start, end].
func (t *tracer) record(name string, parent int, start, end time.Time, count int64, attrs map[string]float64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: t.at(start), End: t.at(end), Count: count, Attrs: attrs})
}

// aggregate adds a span standing for count crossings of a boundary that
// took total time inside parent. It starts with the parent and lasts the
// summed time, which can outlast the parent when several workers cross.
func (t *tracer) aggregate(name string, parent int, count int64, total time.Duration) {
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: p.Start, End: p.Start + total.Seconds(), Count: count})
}

// write saves the spans, with the run's provenance, as JSON.
func (t *tracer) write(path string, prov *provenance) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance *provenance `json:"provenance"`
		Spans      []span      `json:"spans"`
	}{prov, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// layer names a code region whose self time the layer clock attributes.
type layer int

const (
	layerEngine layer = iota
	layerOracle
	layerMakeEngine
	nLayers
)

// layerClock attributes self time to nested layers on one goroutine: time
// spent in a layer entered from inside another counts for the inner layer
// only, so the oracle judging events an engine emits is not engine time.
type layerClock struct {
	stack []frame
	self  [nLayers]time.Duration
	calls [nLayers]int64
}

type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

func (c *layerClock) enter(l layer) {
	c.stack = append(c.stack, frame{l: l, start: time.Now()})
}

func (c *layerClock) exit() {
	f := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	d := time.Since(f.start)
	c.self[f.l] += d - f.child
	c.calls[f.l]++
	if n := len(c.stack); n > 0 {
		c.stack[n-1].child += d
	}
}

// tracedEngine times every call the tempest machine makes into the
// protocol engine.
type tracedEngine struct {
	inner          tempest.Engine
	clk            *layerClock
	deliver, event int64
}

func (e *tracedEngine) Deliver(dst int, m *runtime.Message) error {
	e.deliver++
	e.clk.enter(layerEngine)
	defer e.clk.exit()
	return e.inner.Deliver(dst, m)
}

func (e *tracedEngine) Event(node, tag, id int) error {
	e.event++
	e.clk.enter(layerEngine)
	defer e.clk.exit()
	return e.inner.Event(node, tag, id)
}

func (e *tracedEngine) Counters(node int) tempest.CostCounters { return e.inner.Counters(node) }

// SetObs forwards the run's sink so wrapping the engine does not change
// what it emits.
func (e *tracedEngine) SetObs(s obs.Sink) {
	if a, ok := e.inner.(obs.Attacher); ok {
		a.SetObs(s)
	}
}

// tracedSink times the oracle's event judging.
type tracedSink struct {
	inner interface {
		obs.Sink
		obs.ClockSetter
	}
	clk *layerClock
}

func (s tracedSink) Emit(ev obs.Event) {
	s.clk.enter(layerOracle)
	s.inner.Emit(ev)
	s.clk.exit()
}

func (s tracedSink) SetClock(now func() int64) { s.inner.SetClock(now) }

// callTimer sums the time and count of calls made from several
// goroutines (the checker's workers).
type callTimer struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (c *callTimer) since(start time.Time) {
	c.calls.Add(1)
	c.nanos.Add(int64(time.Since(start)))
}

func (c *callTimer) total() time.Duration { return time.Duration(c.nanos.Load()) }

// tracedSupport times the protocol's support-routine calls. It keeps the
// wrapped module's symmetry declaration visible, so a traced run reduces
// by the same group as an untraced one.
type tracedSupport struct {
	inner interface {
		runtime.Support
		runtime.SymmetryDecl
	}
	t *callTimer
}

func (s tracedSupport) Call(ctx *runtime.Ctx, name string, args []*vm.Value) (vm.Value, error) {
	defer s.t.since(time.Now())
	return s.inner.Call(ctx, name, args)
}

func (s tracedSupport) ModConst(ctx *runtime.Ctx, name string) vm.Value {
	defer s.t.since(time.Now())
	return s.inner.ModConst(ctx, name)
}

func (s tracedSupport) NodeMaskSlots() []int          { return s.inner.NodeMaskSlots() }
func (s tracedSupport) EquivariantRoutines() []string { return s.inner.EquivariantRoutines() }

// tracedEvents times the event generator and snapshots a sample of the
// reachable worlds it is shown, for the codec timings taken after the run.
type tracedEvents struct {
	inner interface {
		mc.EventGen
		mc.EquivariantEvents
	}
	t       *callTimer
	every   int64
	samples chan string // capacity bounds the sample size
}

func (g tracedEvents) Enabled(w *mc.World, node, block int) []mc.Event {
	start := time.Now()
	evs := g.inner.Enabled(w, node, block)
	g.t.since(start)
	if g.t.calls.Load()%g.every == 0 && len(g.samples) < cap(g.samples) {
		if key, err := w.Snapshot(); err == nil {
			select {
			case g.samples <- key:
			default:
			}
		}
	}
	return evs
}

// SymmetricEvents keeps the wrapped generator's equivariance declaration.
func (g tracedEvents) SymmetricEvents() {}
