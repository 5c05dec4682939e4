// Command perfbench is the repository benchmark: it builds real Na Kika
// edge nodes in one process, configured the way cmd/nakikad configures
// them by default, serves them through Node.ServeHTTP on loopback
// listeners, and drives them with a seeded closed-loop HTTP client that
// verifies every response. See README.md in this directory for the
// workloads, the metrics and how to run it.
//
//	go run . --workload edge_hit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 the run is split into an untraced and
// a traced half and the metrics are the per-layer set.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times a run builds and warms its deployment;
// setup_s is the median. Every round but the last is torn down again.
const setupRounds = 5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: edge_hit, specweb or media_range")
	seed := flag.Int64("seed", 1, "seed of the generated request sequence")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, measure time.Duration, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if measure <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := selfCheck(); err != nil {
		return fmt.Errorf("verifier self-check: %w", err)
	}
	// One worker per keep-alive connection, never more than the machine
	// has processors: the closed loop must not out-run the node it drives.
	// The connections the ingress accepts are counted and checked after
	// the run.
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))

	// All state lives under the working directory (the checkout), never in
	// the system temporary directory.
	base, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-data"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	seq := w.generate(seed)
	fmt.Printf("workload %s: %s\n", name, w.why)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s network=loopback (no real link)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("generator: closed loop, %d workers on %d keep-alive connections (<= nproc %d)\n",
		workers, workers, runtime.NumCPU())
	fmt.Printf("inputs: seed=%d requests=%d sha256=%s\n", seed, len(seq.reqs), seq.digest())

	var setups []float64
	var d *deployment
	for round := 0; round < setupRounds; round++ {
		start := time.Now()
		dep, err := w.setup(filepath.Join(work, fmt.Sprintf("round-%d", round)), seq, traced, workers)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if round < setupRounds-1 {
			if err := dep.close(); err != nil {
				return fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		d = dep
	}
	defer d.close()
	setupS := median(setups)
	fmt.Printf("setup: %d rounds, median %.3fs (%s)\n", len(setups), setupS, formatSeconds(setups))

	var res result
	if !traced {
		ph, err := d.runPhase(seq, measure)
		if err != nil {
			return err
		}
		printPhase("measured", ph)
		res = endToEnd(ph, setupS)
	} else {
		res, err = d.runTraced(seq, measure, setupS)
		if err != nil {
			return err
		}
	}
	// Every worker kept its one keep-alive connection: the closed loop
	// never offered more concurrency than the machine has processors.
	conns := d.conns.Load()
	fmt.Printf("generator connections accepted by the ingress: %d\n", conns)
	if conns > int64(runtime.NumCPU()) {
		return fmt.Errorf("generator opened %d connections, more than nproc %d", conns, runtime.NumCPU())
	}
	if err := d.close(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the end-to-end metrics from one untraced phase.
// Goodput is the verified-response rate times the phase's body bytes per
// verified response: a window of a few thousand requests holds too few of
// a mix's rare large bodies for a per-window byte rate to be steady.
func endToEnd(ph *phase, setupS float64) result {
	n := float64(ph.attempted)
	ok := float64(ph.attempted - ph.failed)
	ws := ph.windowStats()
	rps := ws.rps * ok / n
	m := map[string]metric{
		"setup_s":             {setupS, "s"},
		"throughput_rps":      {rps, "req/s"},
		"goodput_MBps":        {rps * ratio(float64(ph.clientBytes), ok) / 1e6, "MB/s"},
		"latency_p50_ms":      {ws.p50 * 1e3, "ms"},
		"latency_p99_ms":      {ws.p99 * 1e3, "ms"},
		"origin_req_per_kreq": {float64(ph.originReqs) * 1000 / n, "count"},
		"origin_bytes_ratio":  {float64(ph.originBytes) / float64(ph.clientBytes), "ratio"},
		"cpu_us_per_req":      {ph.cpu.Seconds() * 1e6 / n, "us"},
		"allocs_per_req":      {float64(ph.mallocs) / n, "count"},
		"rss_peak_MB":         {peakRSSMB(), "MB"},
	}
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}
}

func printPhase(label string, ph *phase) {
	ws := ph.windowStats()
	fmt.Printf("%s phase: %.2fs, %d attempted, %d failed (fail_ratio %.6f), %d latency samples in %d windows of %d\n",
		label, ph.elapsed.Seconds(), ph.attempted, ph.failed, float64(ph.failed)/float64(ph.attempted), len(ph.samples), ws.windows, ws.perWindow)
	for i, e := range ph.failures {
		if i == 5 {
			fmt.Printf("  ... %d more failures\n", len(ph.failures)-i)
			break
		}
		fmt.Printf("  failure: %s\n", e)
	}
}

func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func formatSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return strings.Join(parts, " ")
}
