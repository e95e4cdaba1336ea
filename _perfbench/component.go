package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/scansvc"
	"github.com/netsecurelab/mtasts/internal/store"
)

const (
	tenants      = 2
	pollInterval = 5 * time.Millisecond
	setupReps    = 15
)

// jobDomains is the k-th job's domain list: a window over the
// component pool, wrapping around it.
func jobDomains(w *World, k int) []string {
	n, pool := w.Sizes.JobSize, len(w.Domains)
	out := make([]string, n)
	for i := range out {
		out[i] = w.Domains[((k*n+i)%pool+pool)%pool].Name
	}
	return out
}

// service is one running scan service: store, Service and HTTP server.
type service struct {
	disk *store.Disk
	svc  *scansvc.Service
	http *http.Server
	url  string
	done chan error
}

func (s *service) close() error {
	err := s.http.Close()
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.Close(), s.disk.Close())
}

// startService reopens the store and starts the service as
// mtasts-serve does: always with an obs.Registry.
func startService(e *env, dir string, ls *layerState, scanWrap func(*scanner.Live) scanner.Scanner) (*service, error) {
	t0 := time.Now()
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	opened := time.Since(t0)
	var st store.Store = disk
	reg := obs.NewRegistry()
	if ls != nil {
		ls.store.inner = disk
		st = ls.store
		ls.reg = reg
		ls.storeOpen = append(ls.storeOpen, opened.Seconds())
	}
	live, err := liveSpec(e.ep).Build(reg, nil)
	if err != nil {
		return nil, errors.Join(err, disk.Close())
	}
	var scan scanner.Scanner = live
	if scanWrap != nil {
		scan = scanWrap(live)
	}
	svc := &scansvc.Service{Store: st, Scan: scan, Runner: runnerSpec(), Obs: reg, MaxConcurrent: tenants}
	ss := time.Now()
	if err := svc.Start(); err != nil {
		return nil, errors.Join(err, disk.Close())
	}
	if ls != nil {
		ls.serviceStart = append(ls.serviceStart, time.Since(ss).Seconds())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, svc.Close(), disk.Close())
	}
	s := &service{disk: disk, svc: svc, url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		http: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// runComponent runs closed-loop tenants against the scan service: each
// submits a job over HTTP, polls it until it finishes, streams and
// checks its results, then submits the next.
func runComponent(e *env, s phaseSpec) (*phaseResult, error) {
	res := &phaseResult{verdicts: map[string]string{}}
	var ls *layerState
	var scanWrap func(*scanner.Live) scanner.Scanner
	jobOf := sync.Map{} // domain → job span ID
	if s.tr != nil {
		ls = &layerState{tr: s.tr, store: &tracedStore{tr: s.tr}, sess: &countingSessionCache{inner: tls.NewLRUClientSessionCache(1024)}}
		res.ls = ls
		scanWrap = func(live *scanner.Live) scanner.Scanner {
			live.SessionCache = ls.sess
			ls.stages = newTracedStages(live, s.tr, func(d string) int64 {
				if v, ok := jobOf.Load(d); ok {
					return v.(int64)
				}
				return 0
			})
			return ls.stages
		}
	}
	want := make(map[string]campaign.DomainRecord, len(e.world.Domains))
	for _, d := range e.world.Domains {
		want[d.Name] = d.Expect
	}

	// Set-up, several times before the timed window and again after
	// it, so the median spans the run: the last open is the service.
	closeService := func(s *service) error { return s.close() }
	svc, err := setUp(e, res, setupReps, true, func(dir string) (*service, error) {
		return startService(e, dir, ls, scanWrap)
	}, closeService)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	clients := make([]*http.Client, tenants)
	for t := range clients {
		clients[t] = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		defer clients[t].CloseIdleConnections()
	}
	// loop runs the tenants until limit jobs have started (from job
	// index first) or, with no limit, until the deadline passes.
	loop := func(into *phaseResult, first, limit int, deadline time.Time) int {
		var (
			next atomic.Int64
			mu   sync.Mutex
			wg   sync.WaitGroup
		)
		for t := 0; t < tenants; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				for {
					if limit == 0 && next.Load() > 0 && !time.Now().Before(deadline) {
						return
					}
					k := int(next.Add(1) - 1)
					if limit > 0 && k >= limit {
						return
					}
					jr := runJob(ctx, clients[t], svc.url, fmt.Sprintf("tenant%d", t), e.world, first+k, s.tr, &jobOf, want)
					mu.Lock()
					into.merge(jr)
					mu.Unlock()
				}
			}(t)
		}
		wg.Wait()
		n := int(next.Load())
		if limit > 0 && n > limit {
			n = limit
		}
		return n
	}

	// Warm-up jobs fill the long-running service's caches; their
	// verdicts are checked but not timed.
	first := 0
	if s.warmup > 0 {
		warm := &phaseResult{verdicts: res.verdicts}
		first = loop(warm, 0, s.warmup, time.Time{})
		res.absorbWarmup(warm)
	}
	ls.mark()

	w0, err := e.wp.stats()
	if err != nil {
		return nil, err
	}
	p0 := sampleProc()
	start := time.Now()
	loop(res, first, s.ops, start.Add(s.budget))
	end := time.Now()
	p1 := sampleProc()
	w1, err := e.wp.stats()
	if err != nil {
		return nil, err
	}
	res.proc.add(p0, p1)
	res.world.add(w0, w1)
	res.wall = end.Sub(start).Seconds()
	if ls != nil {
		ls.items = res.attempted
	}
	if err := svc.close(); err != nil {
		return nil, err
	}
	_, err = setUp(e, res, setupReps, false, func(dir string) (*service, error) {
		return startService(e, dir, nil, nil)
	}, closeService)
	return res, err
}

// absorbWarmup counts a warm-up's verdicts towards correctness only.
func (p *phaseResult) absorbWarmup(w *phaseResult) {
	p.failed += w.failed
	p.warmAttempted += w.attempted
	for _, e := range w.errs {
		if len(p.errs) < 10 {
			p.errs = append(p.errs, e)
		}
	}
}

// jobResult is what one tenant saw for one job.
type jobResult struct {
	attempted, items, failed int
	errs                     []string
	latencyMS                float64
	resultBytes              int64
	verdicts                 map[string]string
}

func (p *phaseResult) merge(j jobResult) {
	p.ops++
	p.attempted += j.attempted
	p.items += j.items
	p.failed += j.failed
	for _, e := range j.errs {
		if len(p.errs) < 10 {
			p.errs = append(p.errs, e)
		}
	}
	if j.latencyMS > 0 {
		p.latency = append(p.latency, j.latencyMS)
	}
	for k, v := range j.verdicts {
		p.noteVerdict(k, v)
	}
	if p.ls != nil {
		p.ls.resultBytes += j.resultBytes
		p.ls.resultItems += j.attempted
	}
}

func runJob(ctx context.Context, c *http.Client, base, tenant string, w *World, k int, tr *Tracer,
	jobOf *sync.Map, want map[string]campaign.DomainRecord) (jr jobResult) {
	domains := jobDomains(w, k)
	jr.attempted = len(domains)
	jr.verdicts = map[string]string{}
	fail := func(format string, args ...any) {
		jr.failed = len(domains) - jr.items
		jr.errs = append(jr.errs, fmt.Sprintf(format, args...))
	}
	var jobSpan int64
	jobStart := time.Now()
	if tr != nil {
		jobSpan = tr.NewID()
		for _, d := range domains {
			jobOf.Store(d, jobSpan)
		}
		defer func() { tr.Record(jobSpan, 0, "scansvc.job", fmt.Sprintf("job%d", k), jobStart, time.Now()) }()
	}
	call := func(span, method, url string, body []byte, out any) ([]byte, error) {
		t := time.Now()
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if tr != nil {
			tr.Record(0, jobSpan, span, url, t, time.Now())
		}
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
		}
		if out != nil {
			return b, json.Unmarshal(b, out)
		}
		return b, nil
	}

	body, err := json.Marshal(map[string]any{"tenant": tenant, "domains": domains})
	if err != nil {
		fail("encoding job %d: %v", k, err)
		return jr
	}
	var job scansvc.Job
	if _, err := call("scansvc.submit", "POST", base+"/api/v1/jobs", body, &job); err != nil {
		fail("submitting job %d: %v", k, err)
		return jr
	}
	for !job.State.Terminal() {
		select {
		case <-ctx.Done():
			fail("job %s: %v", job.ID, ctx.Err())
			return jr
		case <-time.After(pollInterval):
		}
		if _, err := call("scansvc.poll", "GET", base+"/api/v1/jobs/"+job.ID, nil, &job); err != nil {
			fail("polling job %s: %v", job.ID, err)
			return jr
		}
	}
	if job.State != scansvc.StateDone {
		fail("job %s ended %s: %s", job.ID, job.State, job.Error)
		return jr
	}
	jr.latencyMS = ms(job.FinishedAt.Sub(job.SubmittedAt).Seconds())
	raw, err := call("scansvc.results", "GET", base+"/api/v1/jobs/"+job.ID+"/results", nil, nil)
	if err != nil {
		fail("results of job %s: %v", job.ID, err)
		return jr
	}
	jr.resultBytes = int64(len(raw))
	inJob := make(map[string]bool, len(domains))
	for _, d := range domains {
		inJob[d] = true
	}
	// Lines that are not a verdict for one of the job's own domains
	// count as failures too.
	bad := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec campaign.DomainRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			bad++
			jr.errs = append(jr.errs, fmt.Sprintf("job %s: bad result line: %v", job.ID, err))
			continue
		}
		if !inJob[rec.Domain] {
			bad++
			jr.errs = append(jr.errs, fmt.Sprintf("job %s: unexpected or repeated result for %s", job.ID, rec.Domain))
			continue
		}
		delete(inJob, rec.Domain)
		jr.verdicts[rec.Domain] = rec.Class
		if err := checkVerdict(rec, want[rec.Domain]); err != nil {
			jr.errs = append(jr.errs, fmt.Sprintf("job %s: %v", job.ID, err))
			continue
		}
		jr.items++
	}
	if len(inJob) > 0 {
		jr.errs = append(jr.errs, fmt.Sprintf("job %s: %d results missing", job.ID, len(inJob)))
	}
	if err := sc.Err(); err != nil {
		bad++
		jr.errs = append(jr.errs, fmt.Sprintf("job %s: reading results: %v", job.ID, err))
	}
	jr.failed = len(domains) - jr.items + bad
	return jr
}
