package main

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsecurelab/mtasts/internal/mta"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/policycache"
	"github.com/netsecurelab/mtasts/internal/resolver"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
)

const (
	sendFrom    = "bench@sender.test"
	sendTimeout = 15 * time.Second
	cacheMax    = 4096
)

var sendData = []byte("Subject: perfbench\r\n\r\nhello\r\n")

func loadRoots(caFile string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("no certificates in %s", caFile)
	}
	return pool, nil
}

// sender is one opened sending MTA: the durable policy cache and one
// Outbound per delivery worker, built the way mtasts-send builds its
// own.
type sender struct {
	disk  *store.Disk
	cache *policycache.Cache
	out   []*mta.Outbound
	cur   []int64 // per worker: the span ID of the message being sent
}

func openSender(e *env, dir string, roots *x509.CertPool, ls *layerState) (*sender, error) {
	t0 := time.Now()
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	var st store.Store = disk
	reg := obs.NewRegistry()
	if ls != nil {
		ls.storeOpen = append(ls.storeOpen, time.Since(t0).Seconds())
		ls.store.inner = disk
		st = ls.store
		ls.reg = reg
	}
	c0 := time.Now()
	cache, err := policycache.Open(st, policycache.Options{Max: cacheMax, Obs: reg})
	if err != nil {
		return nil, errors.Join(err, disk.Close())
	}
	if ls != nil {
		ls.cacheOpen = append(ls.cacheOpen, time.Since(c0).Seconds())
	}
	dns := resolver.New(e.ep.DNS)
	if ls != nil {
		dns.Obs = reg // read back as the resolver.* layer metrics
	}
	fetcher := &mtasts.Fetcher{
		Resolver: mtasts.AddrResolverFunc(func(ctx context.Context, host string) ([]string, error) {
			addrs, err := dns.LookupAddrs(ctx, host, true)
			if err != nil {
				return nil, err
			}
			out := make([]string, len(addrs))
			for i, a := range addrs {
				out[i] = a.String()
			}
			return out, nil
		}),
		Port:    e.ep.HTTPSPort,
		RootCAs: roots,
		Timeout: sendTimeout,
	}
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	s := &sender{disk: disk, cache: cache, cur: make([]int64, workers)}
	for w := range s.cur {
		var txt mtasts.TXTResolver = scanner.TXTResolverAdapter{Client: dns}
		var pc mtasts.PolicyStore = cache
		if ls != nil {
			txt = tracedTXT{inner: txt, tr: ls.tr, cur: &s.cur[w]}
			pc = tracedCache{inner: cache, tr: ls.tr, cur: &s.cur[w], hits: &ls.cacheHits}
		}
		ob := &mta.Outbound{
			DNS:       dns,
			Validator: &mtasts.Validator{Resolver: txt, Fetcher: fetcher, Cache: pc},
			Roots:     roots,
			HeloName:  "mtasts-send.invalid",
			SMTPPort:  e.ep.SMTPPort,
			Timeout:   sendTimeout,
			Obs:       reg,
		}
		ob.AddrOverride = func(mxHost string) string {
			ctx, cancel := context.WithTimeout(context.Background(), sendTimeout)
			defer cancel()
			addrs, err := dns.LookupAddrs(ctx, mxHost, false)
			if err != nil || len(addrs) == 0 {
				return ""
			}
			return net.JoinHostPort(addrs[0].String(), strconv.Itoa(e.ep.SMTPPort))
		}
		s.out = append(s.out, ob)
	}
	return s, nil
}

// runSender drains the message queue with one closed-loop worker per
// CPU, each sending through mta.Outbound.Send.
func runSender(e *env, s phaseSpec) (*phaseResult, error) {
	res := &phaseResult{verdicts: map[string]string{}}
	var ls *layerState
	if s.tr != nil {
		ls = &layerState{tr: s.tr, store: &tracedStore{tr: s.tr}}
		res.ls = ls
	}
	roots, err := loadRoots(e.ep.CAFile)
	if err != nil {
		return nil, err
	}
	// Set-up, several times before the timed window and again after
	// it, so the median spans the run: the last open is the sender.
	closeSender := func(s *sender) error { return s.cache.Close() }
	snd, err := setUp(e, res, setupReps, true, func(dir string) (*sender, error) {
		return openSender(e, dir, roots, ls)
	}, closeSender)
	if err != nil {
		return nil, err
	}

	msgs := e.world.Messages
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	// loop sends messages from index first on, until limit messages
	// have started or, with no limit, until the deadline passes.
	loop := func(into *phaseResult, first, limit int, deadline time.Time) int {
		var (
			next atomic.Int64
			mu   sync.Mutex
			wg   sync.WaitGroup
		)
		byCount := limit > 0
		if !byCount || first+limit > len(msgs) {
			limit = len(msgs) - first
		}
		for w := range snd.out {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ob := snd.out[w]
				for {
					if !byCount && next.Load() > 0 && !time.Now().Before(deadline) {
						return
					}
					k := int(next.Add(1) - 1)
					if k >= limit {
						return
					}
					i := first + k
					d := &e.world.Domains[msgs[i]]
					var span int64
					if ls != nil {
						span = ls.tr.NewID()
						snd.cur[w] = span
					}
					t := time.Now()
					out, err := ob.Send(ctx, sendFrom, []string{"user@" + d.Name}, sendData)
					took := time.Since(t)
					if ls != nil {
						ls.tr.Record(span, 0, "mta.send", strconv.Itoa(i), t, t.Add(took))
					}
					verdict := fmt.Sprintf("delivered=%v mechanism=%s tls=%v verified=%v", out.Delivered, out.Mechanism, out.TLS, out.CertVerified)
					mu.Lock()
					into.ops++
					into.attempted++
					into.latency = append(into.latency, ms(took.Seconds()))
					into.verdicts[strconv.Itoa(i)] = verdict
					switch {
					case err != nil:
						into.fail("message %d to %s: %v", i, d.Name, err)
					case !out.Delivered || out.Mechanism.String() != d.SendMechanism || !out.TLS || !out.CertVerified:
						into.fail("message %d to %s: %s, want mechanism=%s over verified TLS", i, d.Name, verdict, d.SendMechanism)
					default:
						into.items++
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		return min(int(next.Load()), limit)
	}

	// Warm-up messages fill the resolver and policy caches, as a
	// long-running sender's are; they are checked but not timed.
	first := 0
	if s.warmup > 0 {
		warm := &phaseResult{verdicts: res.verdicts}
		first = loop(warm, 0, s.warmup, time.Time{})
		res.absorbWarmup(warm)
	}
	ls.mark()
	collapsed0 := snd.cache.Stats().Collapsed

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
	res.mix = map[string]int{}
	seen := map[int]bool{}
	for i := 0; i < first+res.attempted; i++ {
		if c := sendClass(e.world, seen, i); i >= first {
			res.mix[c]++
		}
	}
	if ls != nil {
		ls.items = res.attempted
		ls.collapsed = snd.cache.Stats().Collapsed - collapsed0
	}
	if err := snd.cache.Close(); err != nil {
		return nil, err
	}
	_, err = setUp(e, res, setupReps, false, func(dir string) (*sender, error) {
		return openSender(e, dir, roots, nil)
	}, closeSender)
	return res, err
}
