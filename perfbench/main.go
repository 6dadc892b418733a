// Command perfbench is the repository's end-to-end benchmark. It runs four
// closed-loop workloads against the dbpl engine, checks every answer against
// an oracle computed apart from the engine, and prints one JSON object with
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. See README.md for the workloads, the metric
// definitions and the reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// workload is one benchmark scenario. build makes the store (untimed) and
// closes it; setup reopens it through recovery, re-executes the schema and
// warms up, and is what setup_s times; run drives operations in whole rounds
// until the deadline; verify closes and reopens the store and checks that
// every acknowledged write survived; layers derives the per-layer metrics of
// a traced run.
type workload interface {
	build(ctx context.Context, dir string) error
	setup(ctx context.Context, dir string) error
	teardown() error
	run(ctx context.Context, deadline time.Time, rec *recorder) error
	verify(ctx context.Context, dir string, rec *recorder) error
	layers(rec *recorder) map[string]Metric
}

var workloads = map[string]func(seed int64) workload{
	"remote-lookup": newRemoteLookup,
	"grow-maintain": newGrowMaintain,
	"explode-edit":  newExplodeEdit,
	"paged-scan":    newPagedScan,
}

// setupRuns is how many times set-up is timed per run. Set-up takes a few
// tens of milliseconds on most workloads, and single set-ups of one run
// ranged over 2–3× (remote-lookup: 20–60 ms), so their median is taken over
// many; grow-maintain's takes seconds.
var setupRuns = map[string]int{
	"remote-lookup": 45,
	"grow-maintain": 5,
	"explode-edit":  15,
	"paged-scan":    45,
}

// procs is the GOMAXPROCS a workload runs with, where it is not the
// machine's. remote-lookup runs its client and server in one process; on one
// P a request's hand-off between them never waits for an idle vCPU to wake,
// which on the shared two-vCPU reference machine cut the interquartile spread
// of ops_per_s over five interleaved pairs of runs from 34% to 16%, and of
// setup_s from 49% to 18%.
var procs = map[string]int{"remote-lookup": 1}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"remote-lookup", "grow-maintain", "explode-edit", "paged-scan"}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and operation sequence")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds (whole rounds, so it ends a little later)")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of the end-to-end metrics")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	total := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, n := range names {
		res, err := runWorkload(n, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			total = res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s %s\n", n, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[n+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workdir holds the store directories and trace files, relative to the
// directory the benchmark runs in (the repository root).
const workdir = ".bench_build"

// runWorkload builds the store, times set-up setupRuns[name] times, runs the
// timed phase on the last set-up, verifies durability, and assembles the
// result.
func runWorkload(name string, seed int64, seconds int, traced bool) (Result, error) {
	ctx := context.Background()
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return Result{}, err
	}
	base, err := os.MkdirTemp(workdir, "run-"+name+"-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(base)
	pristine, dir := filepath.Join(base, "pristine"), filepath.Join(base, "store")

	if n := procs[name]; n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	w := workloads[name](seed)
	if err := w.build(ctx, pristine); err != nil {
		return Result{}, fmt.Errorf("build: %w", err)
	}
	// Every set-up reopens a fresh copy of the built store, so each one, and
	// the timed phase after the last, starts from the same bytes on disk,
	// and from a collected heap, so none pays for the garbage of the last.
	var setupTimes []float64
	setups := setupRuns[name]
	for i := 0; i < setups; i++ {
		if err := copyDir(pristine, dir); err != nil {
			return Result{}, err
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx, dir); err != nil {
			return Result{}, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			if err := w.teardown(); err != nil {
				return Result{}, fmt.Errorf("teardown: %w", err)
			}
		}
	}

	rec := newRecorder(traced, time.Duration(seconds)*time.Second/slicesPerRun)
	runtime.GC()
	heap := startHeapSampler()
	allocs0 := allocBytes()
	start := time.Now()
	runErr := w.run(ctx, start.Add(time.Duration(seconds)*time.Second), rec)
	elapsed := time.Since(start)
	allocs := allocBytes() - allocs0
	peak := heap.stop()
	if runErr != nil {
		w.teardown()
		return Result{}, fmt.Errorf("run: %w", runErr)
	}
	if err := w.verify(ctx, dir, rec); err != nil {
		return Result{}, fmt.Errorf("verify: %w", err)
	}

	res := Result{Correct: rec.correct(), Attempted: rec.attempted.Load(), Failed: rec.failed.Load()}
	for _, msg := range rec.wrongs() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong answer: %s\n", name, msg)
	}
	if res.Attempted == 0 {
		return Result{}, fmt.Errorf("no operation attempted")
	}
	if traced {
		res.Metrics = w.layers(rec)
		for k, v := range rec.selfTimeShares() {
			res.Metrics[k] = v
		}
		res.Metrics["trace.overhead_pct"] = Metric{rec.overheadPct(), "%"}
		tracePath := filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := rec.writeTrace(tracePath); err != nil {
			return Result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans written to %s\n", name, rec.spanCount(), tracePath)
	} else {
		reads, commits := rec.readTimes(), rec.commitTimes()
		if len(reads) == 0 || len(commits) == 0 {
			return Result{}, fmt.Errorf("timed phase recorded %d reads and %d commits", len(reads), len(commits))
		}
		res.Metrics = map[string]Metric{
			"setup_s":         {median(setupTimes), "s"},
			"ops_per_s":       {rec.throughput(), "1/s"},
			"read_p50_us":     {quantile(reads, 0.5) / 1e3, "us"},
			"read_p90_us":     {quantile(reads, 0.9) / 1e3, "us"},
			"commit_p50_us":   {quantile(commits, 0.5) / 1e3, "us"},
			"alloc_kb_per_op": {float64(allocs) / float64(res.Attempted-res.Failed) / 1024, "KB"},
			"heap_peak_mb":    {float64(peak) / (1 << 20), "MB"},
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops (%d reads, %d commits) in %.2fs, setups %v\n",
			name, res.Attempted, len(reads), len(commits), elapsed.Seconds(), setupTimes)
	}
	return res, nil
}

// slicesPerRun is how many slices the timed phase is cut into for
// ops_per_s: the median slice rate shrugs off a burst of interference from
// outside the process that a whole-run mean would carry.
const slicesPerRun = 10

// copyDir replaces dst with a copy of the regular files in src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// median of xs (which it sorts).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; it sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
