// Command perfbench is the repository benchmark. It drives the real
// program over loopback sockets in three workloads — a DNS census
// campaign week (census), component-scan jobs submitted to the scan
// service over HTTP (component), and sender deliveries through the
// outbound MTA with a durable policy cache (sender) — against a
// simulated Internet served by a second process, and checks every
// verdict against the world's ground truth.
//
//	bash _perfbench/run.sh --workload census --seed 1 --seconds 30 --trace 0
//
// The last stdout line is one JSON object: correct, attempted, failed
// and metrics. --trace 0 reports the end-to-end metrics with no
// wrappers installed; --trace 1 repeats the same work through outside
// wrappers and reports per-layer metrics instead. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "world":
			os.Exit(runWorld(os.Args[2:]))
		case "template":
			os.Exit(runTemplate(os.Args[2:]))
		}
	}
	os.Exit(runBench(os.Args[1:]))
}

// Config is one benchmark invocation.
type Config struct {
	Workload   string
	Seed       int64
	Seconds    float64
	Trace      bool
	Ops        int // fixed operation count instead of a time budget
	Scale      float64
	PlantWrong bool // corrupt one ground-truth verdict (gate self-test)
	Workers    int  // sender delivery workers; 0 means one per CPU
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// phaseResult is what one measured phase (untraced or traced) saw.
type phaseResult struct {
	ops           int     // weeks, jobs or messages completed
	items         int     // verified verdicts or deliveries
	attempted     int     // verdicts or deliveries expected in the timed window
	warmAttempted int     // verdicts or deliveries checked during warm-up
	failed        int     // wrong, missing, canceled or errored, warm-up included
	wall          float64 // seconds inside timed windows
	setup         []float64
	latency       []float64 // ms: census shards, component jobs, sender sends
	proc          procDelta
	world         WorldStats
	verdicts      map[string]string // key → verdict, for traced == untraced
	mix           map[string]int    // sender: timed sends by sendClass
	ls            *layerState       // traced phases only
	errs          []string
}

func (p *phaseResult) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 10 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// env is what a workload phase needs: the world, its endpoints, the
// template to copy, and the world process to ask for counters.
type env struct {
	cfg      Config
	world    *World
	ep       Endpoints
	runDir   string
	template string
	wp       *worldProc
	copies   int
}

// freshCopy copies the durable-history template to a new directory.
func (e *env) freshCopy() (string, error) {
	e.copies++
	dst := filepath.Join(e.runDir, fmt.Sprintf("work%03d", e.copies))
	return dst, copyDir(e.template, dst)
}

// setUp opens reps fresh copies of the template in turn, timing each
// open into res.setup. It closes and removes every copy but, when keep
// is set, the last, which it returns open.
func setUp[T any](e *env, res *phaseResult, reps int, keep bool, open func(dir string) (T, error), close func(T) error) (T, error) {
	var v T
	for r := 0; r < reps; r++ {
		dir, err := e.freshCopy()
		if err != nil {
			return v, err
		}
		t0 := time.Now()
		v, err = open(dir)
		if err != nil {
			return v, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if keep && r == reps-1 {
			break
		}
		if err := errors.Join(close(v), os.RemoveAll(dir)); err != nil {
			return v, err
		}
	}
	return v, nil
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, in); err != nil {
			_ = f.Close() // the copy error is the one to report
			return err
		}
		return f.Close()
	})
}

// diesWithParent makes a child process get killed if the bench process
// dies first (the watchdog exits without running deferred clean-up).
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// worldProc is the running world process.
type worldProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

func startWorldProc(cfg Config, runDir string) (*worldProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "world", "--dir", runDir, "--workload", cfg.Workload,
		"--seed", fmt.Sprint(cfg.Seed), "--scale", fmt.Sprint(cfg.Scale))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = diesWithParent()
	// The world needs well under one CPU. One scheduler thread keeps it
	// from contending with the bench process's threads, which roughly halved
	// the run-to-run spread of the component workload on two CPUs.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	wp := &worldProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := wp.out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ready" {
		return nil, errors.Join(fmt.Errorf("world process did not start (%q)", line), err, wp.stop())
	}
	return wp, nil
}

func (wp *worldProc) stats() (WorldStats, error) {
	var st WorldStats
	if _, err := io.WriteString(wp.stdin, "stats\n"); err != nil {
		return st, err
	}
	line, err := wp.out.ReadString('\n')
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal([]byte(line), &st)
}

// stop closes the world's stdin, which ends it, and waits for it.
func (wp *worldProc) stop() error {
	_ = wp.stdin.Close() // closing is the shutdown signal; a second close is harmless
	done := make(chan error, 1)
	go func() { done <- wp.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		_ = wp.cmd.Process.Kill() // it ignored the shutdown signal
		return errors.Join(errors.New("world process killed after shutdown timeout"), <-done)
	}
}

func runTemplate(args []string) int {
	fs := flag.NewFlagSet("template", flag.ContinueOnError)
	dir := fs.String("dir", "", "run directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w World
	var ep Endpoints
	if err := errors.Join(readJSON(filepath.Join(*dir, "world.json"), &w),
		readJSON(filepath.Join(*dir, "endpoints.json"), &ep)); err != nil {
		fmt.Fprintln(os.Stderr, "template:", err)
		return 1
	}
	if err := buildTemplate(&w, ep, filepath.Join(*dir, "template")); err != nil {
		fmt.Fprintln(os.Stderr, "template:", err)
		return 1
	}
	return 0
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg Config
	fs.StringVar(&cfg.Workload, "workload", "", "census, component or sender")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced rerun")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = *trace == 1
	cfg.Scale = 1
	switch cfg.Workload {
	case "census", "component", "sender":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.Workload)
		return 2
	}
	// Every process this run starts is stopped before the deadline.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(1)
	})
	defer watchdog.Stop()

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := bench(cfg, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(out.line)
	if !out.correct {
		return 1
	}
	return 0
}

type benchOut struct {
	line    string
	correct bool
}

// bench runs one invocation, keeping its files under root/.bench_build.
func bench(cfg Config, root string) (benchOut, error) {
	runDir := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", cfg.Workload, cfg.Seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return benchOut{}, err
	}
	defer os.RemoveAll(runDir)

	wp, err := startWorldProc(cfg, runDir)
	if err != nil {
		return benchOut{}, err
	}
	res, err := measure(cfg, runDir, wp)
	if serr := wp.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return benchOut{}, err
	}
	return report(cfg, root, res)
}

// measured carries every phase to the reporter.
type measured struct {
	plain, traced, plain2 *phaseResult
	tr                    *Tracer
	rss                   float64
}

func measure(cfg Config, runDir string, wp *worldProc) (*measured, error) {
	e := &env{cfg: cfg, runDir: runDir, template: filepath.Join(runDir, "template"), wp: wp}
	e.world = &World{}
	if err := errors.Join(readJSON(filepath.Join(runDir, "world.json"), e.world),
		readJSON(filepath.Join(runDir, "endpoints.json"), &e.ep)); err != nil {
		return nil, err
	}
	if cfg.PlantWrong {
		for i := range e.world.Domains {
			d := &e.world.Domains[i]
			if d.Record != "" {
				d.Expect.Valid = !d.Expect.Valid
				d.SendMechanism = "dane"
				break
			}
		}
	}
	// The template is built in its own process, so its memory and CPU
	// stay out of the bench process's numbers.
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tc := exec.Command(self, "template", "--dir", runDir)
	tc.Stdout, tc.Stderr = os.Stderr, os.Stderr
	tc.SysProcAttr = diesWithParent()
	if err := tc.Run(); err != nil {
		return nil, fmt.Errorf("building the durable-history template: %w", err)
	}

	m := &measured{}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	warmup := 0
	if cfg.Ops == 0 {
		warmup = map[string]int{"census": 2, "component": 8, "sender": 1500}[cfg.Workload]
	}
	if cfg.Trace {
		budget /= 3
	}
	m.plain, err = runPhase(e, phaseSpec{ops: cfg.Ops, budget: budget, warmup: warmup})
	if err != nil {
		return nil, err
	}
	m.rss = maxRSSMB()
	if cfg.Trace {
		// Untraced, traced, untraced again over the same operations:
		// the overhead compares the traced run with the mean of the
		// two around it, so drift during the run cancels.
		k := m.plain.ops
		m.tr = newTracer()
		m.traced, err = runPhase(e, phaseSpec{ops: k, warmup: warmup, tr: m.tr})
		if err != nil {
			return nil, err
		}
		m.plain2, err = runPhase(e, phaseSpec{ops: k, warmup: warmup})
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// phaseSpec selects how long a phase runs and whether it is traced.
// warmup operations run first, checked but not timed.
type phaseSpec struct {
	ops    int
	budget time.Duration
	warmup int
	tr     *Tracer
}

func (s phaseSpec) more(done int, deadline time.Time) bool {
	if s.ops > 0 {
		return done < s.ops
	}
	return done == 0 || time.Now().Before(deadline)
}

func runPhase(e *env, s phaseSpec) (*phaseResult, error) {
	switch e.cfg.Workload {
	case "census":
		return runCensus(e, s)
	case "component":
		return runComponent(e, s)
	default:
		return runSender(e, s)
	}
}

func report(cfg Config, root string, m *measured) (benchOut, error) {
	p := m.plain
	attempted, failed := p.attempted+p.warmAttempted, p.failed
	errs := p.errs
	var metrics []metric
	if !cfg.Trace {
		q, what := tailOf(cfg.Workload)
		metrics = []metric{
			{"setup_s", "s", median(p.setup)},
			{"items_per_s", "1/s", ratio(float64(p.items), p.wall)},
			{"cpu_ms_per_item", "ms", 1000 * ratio(p.proc.cpu, float64(p.items))},
			{"latency_p50_ms", "ms", median(p.latency)},
			{"latency_tail_ms", "ms", quantile(p.latency, q)},
			{"max_rss_mb", "MB", m.rss},
		}
		beyond := float64(len(p.latency)) * (1 - q)
		fmt.Fprintf(os.Stderr, "latency_tail_ms is p%g of %d %s (%.0f beyond it)\n", 100*q, len(p.latency), what, beyond)
		if beyond < 10 {
			fmt.Fprintln(os.Stderr, "warning: fewer than ten samples beyond the tail percentile; run longer")
		}
	} else {
		t, p2 := m.traced, m.plain2
		for _, q := range []*phaseResult{t, p2} {
			attempted += q.attempted + q.warmAttempted
			failed += q.failed
			errs = append(errs, q.errs...)
		}
		if neg := m.tr.computeSelf(); neg > 0 {
			failed++
			errs = append(errs, fmt.Sprintf("%d spans have negative self time", neg))
		}
		for _, q := range []*phaseResult{t, p2} {
			for k, v := range p.verdicts {
				if qv, ok := q.verdicts[k]; !ok || qv != v {
					failed++
					if len(errs) < 20 {
						errs = append(errs, fmt.Sprintf("verdict for %s differs between runs: %q vs %q", k, qv, v))
					}
				}
			}
		}
		metrics = append(t.ls.metrics(), procMetrics(p)...)
		untraced := (p.wall + p2.wall) / 2
		metrics = append(metrics, metric{"trace.overhead_share", "ratio", ratio(t.wall-untraced, untraced)})
		dir := filepath.Join(root, ".bench_build", "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return benchOut{}, err
		}
		if err := m.tr.writeJSONL(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))); err != nil {
			return benchOut{}, err
		}
	}
	if p.mix != nil {
		fmt.Fprintf(os.Stderr, "timed sends: %d first contact, %d cached policy, %d no policy\n",
			p.mix["first_contact"], p.mix["cached"], p.mix["no_policy"])
	}
	if attempted == 0 {
		attempted = 1
		failed++
		errs = append(errs, "no operation was attempted")
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	fmt.Fprintf(os.Stderr, "%-36s %14.6f %s\n", "failed_share", ratio(float64(failed), float64(attempted)), "ratio")
	out := map[string]any{}
	for _, mt := range metrics {
		fmt.Fprintf(os.Stderr, "%-36s %14.6f %s\n", mt.name, mt.value, mt.unit)
		out[mt.name] = map[string]any{"value": mt.value, "unit": mt.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		return benchOut{}, err
	}
	return benchOut{line: string(b), correct: failed == 0}, nil
}

// tailOf is each workload's tail percentile: fixed, so that every run
// reports the same one, and chosen so a run at the benchmark's length
// leaves at least ten samples beyond it.
func tailOf(workload string) (q float64, samples string) {
	switch workload {
	case "census":
		return 0.90, "campaign shards (last domain queued to checkpoint)"
	case "component":
		return 0.90, "jobs (FinishedAt - SubmittedAt)"
	}
	return 0.99, "Outbound.Send calls"
}

// procMetrics are the bench-process and world-process counters of the
// untraced phase, per operation.
func procMetrics(p *phaseResult) []metric {
	items := float64(p.items)
	return []metric{
		{"proc.allocs_per_op", "count", ratio(float64(p.proc.allocs), items)},
		{"proc.alloc_bytes_per_op", "bytes", ratio(float64(p.proc.bytes), items)},
		{"proc.gc_cycles", "count", float64(p.proc.gcs)},
		{"proc.gc_pause_ms", "ms", 1000 * p.proc.pauseSec},
		{"world.cpu_s", "s", p.world.CPUSeconds},
		{"world.dns_queries", "count", float64(p.world.DNSQueries)},
		{"world.smtp_conns", "count", float64(p.world.SMTPConns)},
	}
}
