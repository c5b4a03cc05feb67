// Command perfbench is the repository's benchmark. It drives the shipped
// dcta-server and dcta-router binaries, built from the same checkout, as
// child processes over loopback with seeded workloads, checks every answer
// against an in-process reference server built from the same seed, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload dcta-rw --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result holds every end-to-end metric of BENCHMARK.json;
// with --trace 1 it holds the per-layer metrics of a separate traced run
// (see trace.go). The workloads are defined in workload.go, the open-loop
// generator in gen.go and the benchmark's own HTTP client in client.go.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: dcta-rw or crl-read")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds  = flag.Float64("seconds", 40, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding dcta-server and dcta-router")
		outDir   = flag.String("out", ".bench_build", "directory for logs and trace files")
		spinCPU  = flag.Int("spin", -1, "internal: run as the spinner process for this CPU")
	)
	flag.Parse()
	if *spinCPU >= 0 {
		spin(*spinCPU)
	}
	// Spare Ps beyond the core count let a pacer thread waking from its
	// sleep, and the response readers, find an idle P at once.
	runtime.GOMAXPROCS(runtime.NumCPU() + 2)
	sh, ok := shapeByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()
	code := runMain(sh, *seed, *seconds, *trace == 1, *binDir, *outDir)
	stopAll()
	os.Exit(code)
}

func runMain(sh shape, seed int64, seconds float64, traced bool, binDir, outDir string) int {
	logDir := filepath.Join(outDir, "logs", fmt.Sprintf("%s-seed%d-trace%v", sh.name, seed, traced))
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &run{sh: sh, seed: seed, seconds: seconds, binDir: binDir, logDir: logDir,
		start: time.Now(), table: newInterner()}
	if err := startSpinners(logDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var vals map[string]float64
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		vals, err = r.traced(outDir)
	} else {
		vals, err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "measured %-32s %.6g\n", name, vals[name])
	}
	metrics, err := fill(defs, vals)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: answer check:", p)
	}
	if r.nProblems > len(r.problems) {
		fmt.Fprintf(os.Stderr, "perfbench: answer check: ... %d more\n", r.nProblems-len(r.problems))
	}
	res := result{Correct: r.nProblems == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
