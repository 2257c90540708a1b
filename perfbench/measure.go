package main

import (
	"math"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"
)

// quantile is the nearest-rank q-quantile of an ascending slice, the
// value at rank ⌈q·n⌉ (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q * float64(n)))
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return sorted[i-1]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// windowedQuantile splits a phase of length total into consecutive windows
// of length win (one window when the phase is shorter), takes the
// q-quantile of the values whose sample time falls in each window, and
// returns the median over windows. A stall confined to one window moves
// one window's quantile, not the result. at holds each value's sample
// time from the phase start; samples past the last whole window are left
// out.
func windowedQuantile(at []time.Duration, vals []float64, total, win time.Duration, q float64) float64 {
	n := int(total / win)
	if n < 1 {
		n, win = 1, total
	}
	buckets := make([][]float64, n)
	for i, t := range at {
		if k := int(t / win); k >= 0 && k < n {
			buckets[k] = append(buckets[k], vals[i])
		}
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			qs = append(qs, quantile(b, q))
		}
	}
	return median(qs)
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 when empty.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive xs; 0 when any is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// procSnap is a process-level resource snapshot: CPU time from getrusage
// and allocation/GC counters from the Go runtime.
type procSnap struct {
	at         time.Time
	cpu        time.Duration // user + sys
	maxRSSKB   int64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a valid struct cannot fail
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return procSnap{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB:   ru.Maxrss,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// procDelta is the resource use between two snapshots.
type procDelta struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (a procSnap) until(b procSnap) procDelta {
	return procDelta{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcPause:    time.Duration(b.gcPauseNs - a.gcPauseNs),
	}
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	return float64(snapProc().maxRSSKB) / 1024
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
