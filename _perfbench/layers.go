package main

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/obs"
)

// checkVerdict compares a stored verdict with the ground truth. The
// classification hash is not part of the truth (it hashes the scanner's
// full result); it is compared between traced and untraced runs instead.
func checkVerdict(got, want campaign.DomainRecord) error {
	if got.Canceled {
		return fmt.Errorf("%s: canceled", got.Domain)
	}
	got.Class = ""
	norm := func(r *campaign.DomainRecord) {
		if len(r.Codes) == 0 {
			r.Codes = nil
		}
		if len(r.Categories) == 0 {
			r.Categories = nil
		}
	}
	norm(&got)
	norm(&want)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: got %+v, want %+v", got.Domain, got, want)
	}
	return nil
}

// layerState is what a traced phase leaves behind for the per-layer
// metrics. Fields a workload does not exercise stay empty and report 0.
type layerState struct {
	tr     *Tracer
	stages *tracedStages
	store  *tracedStore
	sess   *countingSessionCache
	reg    *obs.Registry
	base   obs.Snapshot // reg at the start of the measured window
	items  int

	weekSeconds  []float64
	storeOpen    []float64
	serviceStart []float64
	cacheOpen    []float64
	cacheHits    atomic.Int64
	collapsed    int64
	resultBytes  int64
	resultItems  int
}

// mark starts the measured window: spans, samples and counter values
// from before it belong to the warm-up and stay out of the metrics.
func (l *layerState) mark() {
	if l == nil {
		return
	}
	l.tr.mark()
	l.base = l.reg.Snapshot()
	if l.stages != nil {
		l.stages.resetWindow()
	}
	if l.store != nil {
		l.store.resetWindow()
	}
	if l.sess != nil {
		l.sess.gets.Store(0)
		l.sess.hits.Store(0)
	}
	l.cacheHits.Store(0)
	l.items = 0
}

func us(x float64) float64 { return x * 1e6 }
func ms(x float64) float64 { return x * 1e3 }

// metrics renders every per-layer metric, in one fixed order for all
// workloads. Self times must already be computed.
func (l *layerState) metrics() []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
	// spans reports the calls and latency of the spans named span.
	spans := func(span string, busy bool) {
		d := l.tr.durations(span)
		add(span+".calls", "count", float64(len(d)))
		if busy {
			add(span+".busy_s", "s", sum(d))
		}
		add(span+".p50_us", "us", us(quantile(d, 0.5)))
		add(span+".p99_us", "us", us(quantile(d, 0.99)))
	}
	snap := l.reg.Snapshot()
	counter := func(n string) float64 { return float64(snap.Counters[n] - l.base.Counters[n]) }
	gauge := func(n string) float64 { return float64(snap.Gauges[n] - l.base.Gauges[n]) }

	// scanner
	spans("scanner.discover", true)
	spans("scanner.fetch", true)
	spans("scanner.probe", true)
	add("scanner.finalize.busy_s", "s", sum(l.tr.durations("scanner.finalize")))
	var qw []float64
	if l.stages != nil {
		qw = l.stages.fetchQueueWait()
	}
	add("scanner.fetch.queue_p50_us", "us", us(quantile(qw, 0.5)))
	add("scanner.fetch.queue_p99_us", "us", us(quantile(qw, 0.99)))
	add("scanner.dedup.hit_ratio", "ratio", ratio(counter("scanner.dedup.hits"), counter("scanner.dedup.hits")+counter("scanner.dedup.misses")))

	// resolver / dnsmsg
	add("resolver.queries_per_op", "count", ratio(counter("resolver.queries.total"), float64(l.items)))
	add("resolver.cache.hit_ratio", "ratio", ratio(gauge("resolver.cache.hits"), gauge("resolver.cache.hits")+gauge("resolver.cache.misses")))
	add("resolver.coalesced", "count", counter("resolver.queries.coalesced"))
	add("resolver.tcp_fallbacks", "count", counter("resolver.queries.tcp_fallbacks"))
	txt := l.tr.durations("resolver.txt")
	add("resolver.txt.calls", "count", float64(len(txt)))
	add("resolver.txt.p50_us", "us", us(quantile(txt, 0.5)))
	add("resolver.txt.p99_us", "us", us(quantile(txt, 0.99)))

	// mtasts fetch
	resume := 0.0
	if l.sess != nil {
		resume = ratio(float64(l.sess.hits.Load()), float64(l.sess.gets.Load()))
	}
	add("mtasts.fetch.resume_ratio", "ratio", resume)
	spans("policycache.fetch", false)

	// smtpclient / mta
	add("smtp.probe.tls_established", "count", counter("smtp.probe.tls_established"))
	self := l.tr.selfSeconds("mta.send")
	add("mta.send.self_p50_ms", "ms", ms(quantile(self, 0.5)))
	add("mta.send.self_p99_ms", "ms", ms(quantile(self, 0.99)))

	// campaign
	week := l.weekSeconds
	if len(week) == 0 {
		if h, ok := snap.Histograms["campaign.week.seconds"]; ok && h.Count > 0 {
			week = []float64{h.Quantile(0.5)}
		}
	}
	add("campaign.week_s", "s", median(week))
	var ck []float64
	if l.store != nil {
		ck = l.store.checkpointSeconds()
	}
	add("campaign.checkpoint.p99_ms", "ms", ms(quantile(ck, 0.99)))

	// store
	for _, op := range []string{"put", "batch", "sync", "scan"} {
		spans("store."+op, false)
	}
	add("store.open_s", "s", median(l.storeOpen))
	var written, size float64
	if l.store != nil {
		written, size = float64(l.store.written.Load()), float64(l.store.SizeBytes())
	}
	add("store.bytes_written", "bytes", written)
	add("store.size_bytes", "bytes", size)

	// scansvc
	add("scansvc.start_s", "s", median(l.serviceStart))
	sub := l.tr.durations("scansvc.submit")
	add("scansvc.submit.p50_ms", "ms", ms(quantile(sub, 0.5)))
	add("scansvc.submit.p99_ms", "ms", ms(quantile(sub, 0.99)))
	add("scansvc.results.p50_ms", "ms", ms(quantile(l.tr.durations("scansvc.results"), 0.5)))
	add("scansvc.results.bytes_per_domain", "bytes", ratio(float64(l.resultBytes), float64(l.resultItems)))

	// policycache
	add("policycache.open_s", "s", median(l.cacheOpen))
	get := l.tr.durations("policycache.get")
	add("policycache.get.calls", "count", float64(len(get)))
	add("policycache.get.hit_ratio", "ratio", ratio(float64(l.cacheHits.Load()), float64(len(get))))
	add("policycache.get.p99_us", "us", us(quantile(get, 0.99)))
	spans("policycache.store", false)
	add("policycache.collapsed", "count", float64(l.collapsed))
	return out
}
