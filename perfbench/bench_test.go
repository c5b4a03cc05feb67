package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricsMatchBenchmarkFile pins every metric the benchmark prints, and
// every workload it runs, to BENCHMARK.json: same names, units, directions
// and bounds, in the same order.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if len(f.Workloads) != len(shapes) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(shapes))
	}
	for i, s := range shapes {
		if f.Workloads[i] != (workload{Name: s.name, Why: s.why}) {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s: %s", i, f.Workloads[i], s.name, s.why)
		}
	}
	var setup *metricDef
	for i, m := range endToEnd {
		if m.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range endToEnd {
		if m.Bound > setup.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v must be in (0, setup_s bound %v]", m.Name, m.Bound, setup.Bound)
		}
	}
}

// framesFor renders the byte stream every phase of a run would send.
func framesFor(t *testing.T, w *world, sh shape, seed int64) []byte {
	t.Helper()
	if err := w.buildPool(seed); err != nil {
		t.Fatal(err)
	}
	served, err := w.warmReference(w.ref, sh.crl) // any fixed allocation will do for write frames
	if err != nil {
		t.Fatal(err)
	}
	perPool := make([][]int, len(w.pool))
	for i, e := range w.pool {
		perPool[i] = served[e.key]
	}
	reads, writes := sh.frames(w, perPool)
	var out bytes.Buffer
	for _, stream := range []int64{streamLo, streamHi, streamProbe, 1000 + streamLo} {
		for _, it := range sh.schedule(seed, stream, 2000, w.byKey) {
			if it.write {
				out.Write(writes[it.pool])
			} else {
				out.Write(reads[it.pool])
			}
			out.WriteByte(it.conn)
		}
	}
	return out.Bytes()
}

// TestSameSeedSameRequests checks that a workload seed fixes the request
// sequence byte for byte, and that another seed changes it.
func TestSameSeedSameRequests(t *testing.T) {
	w1, err := buildWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := buildWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shapes {
		a := sha256.Sum256(framesFor(t, w1, sh, 7))
		b := sha256.Sum256(framesFor(t, w2, sh, 7))
		c := sha256.Sum256(framesFor(t, w1, sh, 8))
		if a != b {
			t.Errorf("%s: seed 7 gave two different request sequences", sh.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", sh.name)
		}
	}
}

// TestPoolCoversEveryKey checks that requests are spread over all cluster
// keys: every key has its variants and each variant maps to its key.
func TestPoolCoversEveryKey(t *testing.T) {
	w, err := buildWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.buildPool(3); err != nil {
		t.Fatal(err)
	}
	for k, idx := range w.byKey {
		if len(idx) < variantsPerKey {
			t.Errorf("key %d has %d pool entries, want at least %d", k, len(idx), variantsPerKey)
		}
		for _, i := range idx {
			got, _, err := w.scn.Store.NearestIndex(w.pool[i].sig)
			if err != nil || got != k {
				t.Errorf("pool entry %d filed under key %d maps to %d (%v)", i, k, got, err)
			}
		}
	}
}

// TestStaircase checks that the max-rate search settles between a passing
// and a failing rate.
func TestStaircase(t *testing.T) {
	sc := newStaircase(1000)
	for i := 0; i < 16; i++ {
		sc.record(sc.rate <= 3000)
	}
	if est := sc.estimate(); est < 2700 || est > 3300 {
		t.Fatalf("staircase estimate %.0f, want about 3000 (rates %v)", est, sc.rates)
	}
	up := newStaircase(1000)
	up.record(true)
	up.record(true)
	if est := up.estimate(); est != 1250 {
		t.Fatalf("estimate before any failure = %.0f, want the highest pass 1250", est)
	}
}

// TestSmokeEveryWorkload runs each workload end to end for a short time
// against freshly built binaries and requires every answer to pass the
// check.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and starts servers")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/dcta-server", "./cmd/dcta-router")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			r := &run{sh: sh, seed: 5, seconds: 5, binDir: bin, logDir: t.TempDir(),
				start: time.Now(), table: newInterner()}
			defer stopAll()
			vals, err := r.endToEnd()
			if err != nil {
				t.Fatal(err)
			}
			if r.nProblems != 0 || r.failed != 0 {
				t.Fatalf("%d answer-check problems, %d failed of %d: %v", r.nProblems, r.failed, r.attempted, r.problems)
			}
			if _, err := fill(endToEnd, vals); err != nil {
				t.Fatal(err)
			}
		})
	}
}
