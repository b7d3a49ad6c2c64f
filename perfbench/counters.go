package main

import (
	"runtime"
	"strings"
	"time"

	"partsvc/internal/transport"
)

// phase is one timed phase's outcome.
type phase struct {
	main, side samples // the workload's two timed operations, ms, in completion order
	units      int     // ops, sessions or waves completed
	rate       float64 // units per second
	attempted  int64
	failed     int64
	elapsed    time.Duration
	// counters are per-layer metrics read from the program's own
	// counters across the phase.
	counters map[string]float64
}

func snapMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// addTCP reports the TCP transport's per-op traffic across a phase.
// The write-batch and queue-wait quantiles come from the transport's
// cumulative histograms, which set-up traffic barely moves.
func addTCP(out map[string]float64, a, b transport.StatsSnapshot, ops float64) {
	bytes := (b.BytesSent - a.BytesSent) + (b.BytesReceived - a.BytesReceived)
	frames := (b.FramesSent - a.FramesSent) + (b.FramesReceived - a.FramesReceived)
	out["transport.bytes_per_op"] = ratio(float64(bytes), ops)
	out["transport.frames_per_op"] = ratio(float64(frames), ops)
	out["transport.write_batch_p50"] = b.WriteBatchP50
	out["transport.queue_wait_p50_ms"] = b.QueueWaitP50MS
}

// addMem reports allocation per unit of work across a phase and the
// process's GC CPU share so far.
func addMem(out map[string]float64, a, b runtime.MemStats, units float64) {
	out["runtime.allocs_per_op"] = ratio(float64(b.Mallocs-a.Mallocs), units)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(b.TotalAlloc-a.TotalAlloc), units)
	out["runtime.gc_cpu_fraction"] = b.GCCPUFraction
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	m := snapMem()
	return float64(m.HeapAlloc) / (1 << 20)
}

type errList []string

func (e errList) Error() string { return strings.Join(e, "; ") }

// joinErrs returns nil for no messages, else one error carrying all.
func joinErrs(msgs []string) error {
	if len(msgs) == 0 {
		return nil
	}
	if len(msgs) > 10 {
		msgs = append(msgs[:10:10], "...")
	}
	return errList(msgs)
}
