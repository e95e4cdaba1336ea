package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/netsecurelab/mtasts/internal/campaign"
	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/policycache"
	"github.com/netsecurelab/mtasts/internal/scansvc"
	"github.com/netsecurelab/mtasts/internal/store"
)

// buildTemplate writes the workload's durable history through the
// program's public API, once per invocation; every measured operation
// starts from a fresh copy of it.
func buildTemplate(w *World, ep Endpoints, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := store.OpenDisk(dir)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	switch w.Workload {
	case "census":
		err = censusWeek0(ctx, w, ep, st)
	case "component":
		err = priorJobs(ctx, w, ep, st)
	case "sender":
		return cacheGenerations(w, st)
	}
	return errors.Join(err, st.Close())
}

// censusWeek0 stores campaign week 0.
func censusWeek0(ctx context.Context, w *World, ep Endpoints, st store.Store) error {
	live, err := liveSpec(ep).Build(nil, nil)
	if err != nil {
		return err
	}
	runner, err := runnerSpec().Build(live, nil, nil)
	if err != nil {
		return err
	}
	domains := make([]string, len(w.Domains))
	for i, d := range w.Domains {
		domains[i] = d.Name
	}
	eng := &campaign.Engine{Store: st, Runner: runner, ID: censusID}
	return eng.RunWeek(ctx, 0, campaign.SliceSource(domains))
}

// priorJobs runs completed jobs through the service, so its store holds
// job records, domain lists and results before the measured run.
func priorJobs(ctx context.Context, w *World, ep Endpoints, st store.Store) error {
	live, err := liveSpec(ep).Build(nil, nil)
	if err != nil {
		return err
	}
	svc := &scansvc.Service{Store: st, Scan: live, Runner: runnerSpec(), Obs: obs.NewRegistry(), MaxConcurrent: tenants}
	if err := svc.Start(); err != nil {
		return err
	}
	var ids []string
	for k := 0; k < w.Sizes.PriorJobs; k++ {
		j, err := svc.Submit("history", jobDomains(w, -1-k))
		if err != nil {
			return errors.Join(err, svc.Close())
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		for {
			j, ok, err := svc.Get(id)
			if err != nil || !ok {
				return errors.Join(fmt.Errorf("prior job %s: lost (%v)", id, err), svc.Close())
			}
			if j.State.Terminal() {
				if j.State != scansvc.StateDone {
					return errors.Join(fmt.Errorf("prior job %s ended %s: %s", id, j.State, j.Error), svc.Close())
				}
				break
			}
			select {
			case <-ctx.Done():
				return errors.Join(ctx.Err(), svc.Close())
			case <-time.After(pollInterval):
			}
		}
	}
	return svc.Close()
}

// cacheGenerations stores the previously contacted policy domains in
// turn, CacheRefreshes times in all, as periodic refreshes would, so
// Open replays superseded records. The size of that history does not
// depend on how many domains the seed's history reached. The last
// store of each domain carries the record ID the world serves.
func cacheGenerations(w *World, st store.Store) error {
	cache, err := policycache.Open(st, policycache.Options{Max: cacheMax})
	if err != nil {
		return errors.Join(err, st.Close())
	}
	var cached []*Domain
	for i := range w.Domains {
		if w.Domains[i].Cached {
			cached = append(cached, &w.Domains[i])
		}
	}
	total := max(w.Sizes.CacheRefreshes, len(cached))
	for k := 0; k < total; k++ {
		d := cached[k%len(cached)]
		id := d.RecordID
		if k < total-len(cached) {
			id = fmt.Sprintf("2023%06d", k/len(cached))
		}
		cache.Store(d.Name, mtasts.Policy{Version: mtasts.Version, Mode: mtasts.Mode(d.Mode),
			MaxAge: int64(d.MaxAge), MXPatterns: d.Patterns}, id)
	}
	return cache.Close()
}
