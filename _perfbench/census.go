package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/scansvc"
	"github.com/netsecurelab/mtasts/internal/store"
)

const censusID = "census"

// liveSpec is the scan stack the CLIs build: DNS rate limiting off and
// one attempt per network operation.
func liveSpec(ep Endpoints) scansvc.LiveSpec {
	return scansvc.LiveSpec{DNSAddr: ep.DNS, HTTPSPort: ep.HTTPSPort, SMTPPort: ep.SMTPPort,
		CAFile: ep.CAFile, Rate: 0, Retries: 1}
}

// runnerSpec sizes every scanner stage pool to the CPU count.
func runnerSpec() scansvc.RunnerSpec {
	return scansvc.RunnerSpec{Workers: runtime.NumCPU(), StageWorkers: "auto", Dedup: true}
}

// runCensus times campaign.Engine.RunWeek(1) over a fresh copy of a
// store that already holds week 0, once per operation. Each operation
// rebuilds the stack, as each mtasts-campaign invocation does.
func runCensus(e *env, s phaseSpec) (*phaseResult, error) {
	res := &phaseResult{verdicts: map[string]string{}}
	var ls *layerState
	var ts *tracedStore
	var weekSpan int64
	if s.tr != nil {
		ls = &layerState{tr: s.tr, reg: obs.NewRegistry()}
		ts = &tracedStore{tr: s.tr}
		ls.store = ts
		res.ls = ls
	}
	domains := make([]string, len(e.world.Domains))
	want := make(map[string]campaign.DomainRecord, len(domains))
	for i, d := range e.world.Domains {
		domains[i] = d.Name
		want[d.Name] = d.Expect
	}
	week := func(into *phaseResult) error {
		dir, err := e.freshCopy()
		if err != nil {
			return err
		}

		// Set-up: reopen (and replay) the store, build the live stack.
		t0 := time.Now()
		disk, err := store.OpenDisk(dir)
		if err != nil {
			return err
		}
		opened := time.Since(t0)
		var st store.Store = disk
		var reg *obs.Registry // mtasts-campaign runs without telemetry
		if ls != nil {
			ts.inner = disk
			st = ts
			reg = ls.reg
			ls.storeOpen = append(ls.storeOpen, opened.Seconds())
		}
		live, err := liveSpec(e.ep).Build(reg, nil)
		if err != nil {
			return err
		}
		var scan scanner.Scanner = live
		if ls != nil {
			// One wrapper for the phase, so its samples accumulate over
			// the weeks; weeks run one at a time.
			weekSpan = s.tr.NewID()
			if ls.stages == nil {
				ls.stages = newTracedStages(live, s.tr, func(string) int64 { return weekSpan })
			}
			ls.stages.inner = live
			scan = ls.stages
		}
		runner, err := runnerSpec().Build(scan, reg, nil)
		if err != nil {
			return err
		}
		eng := &campaign.Engine{Store: st, Runner: runner, ID: censusID, Obs: reg}
		into.setup = append(into.setup, time.Since(t0).Seconds())

		w0, err := e.wp.stats()
		if err != nil {
			return err
		}
		p0 := sampleProc()
		var tailStart time.Time
		shard := campaign.DefaultShardSize
		src := func(fn func(string) error) error {
			for i, d := range domains {
				if (i+1)%shard != 0 {
					if err := fn(d); err != nil {
						return err
					}
					continue
				}
				// The shard's last domain runs the shard: scan, store,
				// checkpoint.
				t := time.Now()
				if err := fn(d); err != nil {
					return err
				}
				into.latency = append(into.latency, ms(time.Since(t).Seconds()))
			}
			tailStart = time.Now()
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		start := time.Now()
		runErr := eng.RunWeek(ctx, 1, src)
		end := time.Now()
		cancel()
		if len(domains)%shard != 0 && !tailStart.IsZero() {
			into.latency = append(into.latency, ms(end.Sub(tailStart).Seconds()))
		}
		p1 := sampleProc()
		w1, err := e.wp.stats()
		if err != nil {
			return err
		}
		into.proc.add(p0, p1)
		into.world.add(w0, w1)
		into.wall += end.Sub(start).Seconds()
		if ls != nil {
			s.tr.Record(weekSpan, 0, "campaign.week", fmt.Sprintf("week%d", into.ops), start, end)
			ls.weekSeconds = append(ls.weekSeconds, end.Sub(start).Seconds())
			ls.items += len(domains)
		}
		into.attempted += len(domains)
		if runErr != nil {
			into.fail("RunWeek: %v", runErr)
		}
		seen := 0
		err = campaign.ScanWeek(disk, censusID, 1, func(_ []byte, rec campaign.DomainRecord) error {
			w, ok := want[rec.Domain]
			if !ok {
				into.fail("unexpected domain %s in week 1", rec.Domain)
				return nil
			}
			seen++
			into.noteVerdict(rec.Domain, rec.Class)
			if err := checkVerdict(rec, w); err != nil {
				into.fail("%v", err)
				return nil
			}
			into.items++
			return nil
		})
		if err != nil {
			into.fail("reading week 1: %v", err)
		}
		if missing := len(domains) - seen; missing > 0 {
			into.fail("week 1 is missing %d domain verdicts", missing)
			into.failed += missing - 1
		}
		if err := disk.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		return nil
	}
	// The first weeks warm the process up; they are checked, not timed.
	if s.warmup > 0 {
		warm := &phaseResult{verdicts: res.verdicts}
		for i := 0; i < s.warmup; i++ {
			if err := week(warm); err != nil {
				return nil, err
			}
		}
		res.absorbWarmup(warm)
	}
	if ls != nil {
		// Each week rebuilds the stack, so the timed weeks get their
		// own registry and the warm-up's samples are dropped.
		ls.reg = obs.NewRegistry()
		ls.weekSeconds = nil
	}
	ls.mark()
	deadline := time.Now().Add(s.budget)
	for ; s.more(res.ops, deadline); res.ops++ {
		if err := week(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// noteVerdict records a domain's classification hash; every scan of a
// domain within a phase must classify it identically.
func (p *phaseResult) noteVerdict(key, class string) {
	if prev, ok := p.verdicts[key]; ok && prev != class {
		p.fail("%s classified differently on a rescan", key)
		return
	}
	p.verdicts[key] = class
}

func (w *WorldStats) add(a, b WorldStats) {
	w.CPUSeconds += b.CPUSeconds - a.CPUSeconds
	w.DNSQueries += b.DNSQueries - a.DNSQueries
	w.SMTPConns += b.SMTPConns - a.SMTPConns
}
