package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// settle leaves the process in the same state before every measured call:
// the previous call's garbage collected and returned to the OS, and the
// kernel's peak-RSS mark reset to the current RSS, so the mark read after
// the call is that call's own peak.
func settle() error {
	goruntime.GC()
	debug.FreeOSMemory()
	// "5" resets VmHWM (Documentation/filesystems/proc.rst, clear_refs).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set size since the last
// settle.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSample is what the process-level probes read; the difference of
// two samples taken around a call is that call's cost.
type procSample struct {
	cpu, gcCPU     float64
	alloc, mallocs uint64
	gcs            uint32
}

func sampleProc() procSample {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	var gcCPU float64
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = gc[0].Value.Float64()
	}
	return procSample{cpu: cpuSeconds(), gcCPU: gcCPU, alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC}
}

func (a procSample) to(b procSample) procSample {
	return procSample{cpu: b.cpu - a.cpu, gcCPU: b.gcCPU - a.gcCPU,
		alloc: b.alloc - a.alloc, mallocs: b.mallocs - a.mallocs, gcs: b.gcs - a.gcs}
}
