package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is the bench process's resource use at one instant.
type procSample struct {
	cpu      float64 // user+system seconds
	allocs   uint64
	bytes    uint64
	gcs      uint64
	pauseSec float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func sampleProc() procSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	p := procSample{cpu: cpuSeconds()}
	if ms[0].Value.Kind() == metrics.KindUint64 {
		p.allocs = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		p.bytes = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		p.gcs = ms[2].Value.Uint64()
	}
	if ms[3].Value.Kind() == metrics.KindFloat64Histogram {
		p.pauseSec = histTotal(ms[3].Value.Float64Histogram())
	}
	return p
}

// histTotal estimates the sum of a runtime/metrics histogram's samples
// from bucket midpoints.
func histTotal(h *metrics.Float64Histogram) float64 {
	t := 0.0
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		t += float64(c) * (lo + hi) / 2
	}
	return t
}

// procDelta accumulates resource use over timed windows.
type procDelta struct {
	cpu      float64
	allocs   uint64
	bytes    uint64
	gcs      uint64
	pauseSec float64
}

func (d *procDelta) add(a, b procSample) {
	d.cpu += b.cpu - a.cpu
	d.allocs += b.allocs - a.allocs
	d.bytes += b.bytes - a.bytes
	d.gcs += b.gcs - a.gcs
	d.pauseSec += b.pauseSec - a.pauseSec
}

// maxRSSMB is the bench process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
