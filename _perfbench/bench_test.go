package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestMain lets the test binary serve as the world and template
// processes the benchmark starts from its own executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "world":
			os.Exit(runWorld(os.Args[2:]))
		case "template":
			os.Exit(runTemplate(os.Args[2:]))
		}
	}
	os.Exit(m.Run())
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// tinyConfig is a small fixed-size version of a workload.
func tinyConfig(workload string, trace, plant bool) Config {
	ops := map[string]int{"census": 1, "component": 3, "sender": 400}[workload]
	return Config{Workload: workload, Seed: 7, Trace: trace, Ops: ops, Scale: 0.05, PlantWrong: plant}
}

func tiny(t *testing.T, workload string, trace, plant bool) result {
	t.Helper()
	return run(t, tinyConfig(workload, trace, plant))
}

func run(t *testing.T, cfg Config) result {
	t.Helper()
	workload := cfg.Workload
	out, err := bench(cfg, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var r result
	if err := json.Unmarshal([]byte(out.line), &r); err != nil {
		t.Fatalf("%s: result line %q: %v", workload, out.line, err)
	}
	if r.Correct != out.correct {
		t.Fatalf("%s: result says correct=%v, exit status says %v", workload, r.Correct, out.correct)
	}
	return r
}

func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, label string, got result, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for n, u := range want {
		m, ok := got.Metrics[n]
		switch {
		case !ok:
			missing = append(missing, n)
		case m.Unit != u:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", label, n, m.Unit, u)
		}
	}
	for n := range got.Metrics {
		if _, ok := want[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: metric names differ from BENCHMARK.json: missing %v, extra %v", label, missing, extra)
	}
}

func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range []string{"census", "component", "sender"} {
		plain := tiny(t, w, false, false)
		if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, plain.Correct, plain.Attempted, plain.Failed)
		}
		sameNames(t, w+" --trace 0", plain, endToEnd)
		traced := tiny(t, w, true, false)
		if !traced.Correct {
			t.Errorf("%s --trace 1: not correct (failed=%d)", w, traced.Failed)
		}
		sameNames(t, w+" --trace 1", traced, perLayer)
	}
}

// TestDeterministicCounts requires counts that depend only on the
// inputs to repeat exactly across two runs with the same seed. The
// sender runs one delivery worker: with two, a worker that misses the
// cache while another's fetch of the same first-contact domain is
// finishing starts a second fetch.
func TestDeterministicCounts(t *testing.T) {
	counts := map[string][]string{
		"census":    {"world.dns_queries", "scanner.discover.calls", "scanner.fetch.calls", "scanner.probe.calls"},
		"component": {"scanner.discover.calls", "scanner.fetch.calls", "scanner.probe.calls"},
		"sender":    {"policycache.fetch.calls", "policycache.get.calls", "resolver.txt.calls"},
	}
	for w, names := range counts {
		cfg := tinyConfig(w, true, false)
		cfg.Workers = 1
		firstContacts := 0
		if w == "sender" {
			cfg.Seed, firstContacts = firstContactSeed(t, cfg)
		}
		a, b := run(t, cfg), run(t, cfg)
		if w == "sender" && a.Metrics["policycache.fetch.calls"].Value != float64(firstContacts) {
			t.Errorf("sender: %v policy fetches, want one per first-contact send (%d)", a.Metrics["policycache.fetch.calls"].Value, firstContacts)
		}
		for _, n := range names {
			if a.Metrics[n].Value != b.Metrics[n].Value {
				t.Errorf("%s: %s differs between same-seed runs: %v vs %v", w, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
			if a.Metrics[n].Value == 0 {
				t.Errorf("%s: %s is 0; the count is not exercised", w, n)
			}
		}
	}
}

// firstContactSeed is the first seed from cfg.Seed on whose tiny sender
// queue reaches a recipient with a policy the cache does not hold, so
// that the fetch path runs. It returns the number of such sends.
func firstContactSeed(t *testing.T, cfg Config) (int64, int) {
	t.Helper()
	for seed := cfg.Seed; seed < cfg.Seed+100; seed++ {
		w, err := generate("sender", seed, sizesFor(cfg.Scale))
		if err != nil {
			t.Fatal(err)
		}
		seen, n := map[int]bool{}, 0
		for i := 0; i < cfg.Ops; i++ {
			if sendClass(w, seen, i) == "first_contact" {
				n++
			}
		}
		if n > 0 {
			return seed, n
		}
	}
	t.Fatal("no seed gives the tiny sender queue a first contact")
	return 0, 0
}

// TestPlantedWrongVerdictFailsGate corrupts one ground-truth verdict and
// requires the gate to report the run as incorrect.
func TestPlantedWrongVerdictFailsGate(t *testing.T) {
	for _, w := range []string{"census", "sender"} {
		r := tiny(t, w, false, true)
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: a planted wrong verdict passed the gate (correct=%v failed=%d)", w, r.Correct, r.Failed)
		}
	}
}
