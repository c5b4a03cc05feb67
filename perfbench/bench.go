package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
)

// The end-to-end run: set the program up several times, time two fixed
// open-loop rates and search the highest rate that meets the latency
// limit, read process numbers at phase boundaries, then check every
// answer against the reference.

const (
	// segments is how many times a run sets the program up afresh and
	// measures it.
	segments = 6
	// sweepsPerSegment is how many extra fresh set-ups follow each segment
	// (on derived worlds for crl-read). They sample set-up, first touches
	// and, without open-loop writes, the write probe all through the run
	// instead of at a few instants.
	sweepsPerSegment = 1
	// slicesPerSegment is how many lo slices, and as many hi slices, a
	// segment runs, alternating with its max-rate probes, so that the timed
	// rates sample many moments of the run.
	slicesPerSegment = 2
	// maxRateProbes is the number of max-rate probes in a run, spread
	// evenly over its segments.
	maxRateProbes = 12
	// The max-rate staircase starts at staircaseStart times hi; its rate
	// factor per step starts at staircaseFirstStep and stays within
	// [staircaseMinStep, staircaseFirstStep].
	staircaseStart     = 1.5
	staircaseFirstStep = 1.25
	staircaseMinStep   = 1.04
	// writeProbeN is the closed-loop feedback probe run after the read
	// phases of workloads that do not write (ten refits on one server).
	writeProbeN = 110
	// timedAttempts bounds how often an invalid lo or hi phase is measured.
	timedAttempts = 5
)

type run struct {
	sh      shape
	seed    int64
	seconds float64
	binDir  string
	logDir  string
	start   time.Time
	table   *interner

	attempted, failed int
	degraded, normal  int
	problems          []string
	nProblems         int

	setupS  []float64
	coldMs  []float64
	writeMs []float64
	phases  []phaseRun // every open-loop phase, in order
}

// phaseRun ties a phase to the segment, world and expected answers it ran
// against.
type phaseRun struct {
	seg    int
	w      *world
	served [][]int // expected answer per pool entry before any feedback
	p      *phase
	ok     int     // requests answered 2xx
	timed  bool    // lo or hi
	rate   float64 // offered rate, requests per second
	cpu    float64 // program CPU seconds over the phase
}

func (r *run) problem(format string, args ...any) {
	r.nProblems++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(r.start).Seconds(), fmt.Sprintf(format, args...))
}

// prepared is a world made ready for one workload: reference warmed in key
// order, pool drawn, expected answers and frames rendered.
type prepared struct {
	w             *world
	warmAns       [][]int
	warmFrames    [][]byte
	served        [][]int
	reads, writes [][]byte
}

func (r *run) prepare(worldSeed int64) (*prepared, error) {
	w, err := buildWorld(worldSeed)
	if err != nil {
		return nil, err
	}
	pr := &prepared{w: w}
	if pr.warmAns, err = w.warmReference(w.ref, r.sh.crl); err != nil {
		return nil, err
	}
	for _, e := range w.warm {
		pr.warmFrames = append(pr.warmFrames, frame("/v1/allocate", mustJSON(e.allocateRequest(r.sh.crl))))
	}
	if err := w.buildPool(r.seed); err != nil {
		return nil, err
	}
	pr.served = make([][]int, len(w.pool))
	for i, e := range w.pool {
		if pr.served[i], err = refAllocate(w.ref, e.allocateRequest(r.sh.crl)); err != nil {
			return nil, fmt.Errorf("reference answer %d: %w", i, err)
		}
	}
	pr.reads, pr.writes = r.sh.frames(w, pr.served)
	return pr, nil
}

func (r *run) launch(tag string, worldSeed int64, clustered bool) (*topology, error) {
	if clustered {
		return launchCluster(r.binDir, r.logDir, tag, worldSeed)
	}
	return launchSingle(r.binDir, r.logDir, tag, worldSeed)
}

// setUp launches a fresh topology, the cluster one when clustered, and warms
// every key in key order with one closed-loop client, timing each first
// touch and checking its answer. A cluster's next first touch waits until
// the last policy trained has reached its replica: a shard warm-starts from
// the nearest policy it holds, replicas included, so without the wait how
// much a training costs would depend on how a replica push raced it.
func (r *run) setUp(tag string, pr *prepared, clustered bool) (*topology, error) {
	t0 := time.Now()
	topo, err := r.launch(tag, pr.w.seed, clustered)
	if err != nil {
		return nil, err
	}
	cc, err := dialClosed(topo.entry)
	if err != nil {
		topo.stop()
		return nil, err
	}
	defer cc.Close()
	for k, f := range pr.warmFrames {
		t := time.Now()
		status, body, err := cc.do(f, 60*time.Second)
		r.attempted++
		if err != nil || status != 200 {
			topo.stop()
			return nil, fmt.Errorf("warm key %d: status %d: %v", k, status, err)
		}
		r.coldMs = append(r.coldMs, float64(time.Since(t))/1e6)
		want := pr.warmAns[k]
		if clustered {
			want = expectThroughCluster(r.sh, want)
		}
		r.checkAnswer(pr.w, want, body, fmt.Sprintf("warm key %d", k))
		if !clustered {
			continue
		}
		if err := topo.settleReplication(10 * time.Second); err != nil {
			topo.stop()
			return nil, fmt.Errorf("replication did not settle: %w", err)
		}
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return topo, nil
}

// expectThroughCluster is the reference answer a cluster must reproduce:
// DCTA answers do not depend on trained weights, so they hold through the
// router; CRL answers depend on which neighbour policies each shard held
// when it trained, so through a cluster only feasibility is checked.
func expectThroughCluster(sh shape, want []int) []int {
	if sh.crl {
		return nil
	}
	return want
}

// checkAnswer verifies one closed-loop allocate answer: feasible, served
// by the policy path, and equal to want unless want is nil.
func (r *run) checkAnswer(w *world, want []int, body []byte, what string) {
	a, err := parseAllocation(allocationField(body))
	if err != nil {
		r.failed++
		r.problem("%s: %v", what, err)
		return
	}
	if err := w.checkFeasible(a); err != nil {
		r.failed++
		r.problem("%s: infeasible: %v", what, err)
		return
	}
	if string(stringField(body, keyMode)) != serve.ModeNormal {
		r.degraded++
		return
	}
	r.normal++
	if want != nil && !equalAlloc(a, want) {
		r.failed++
		r.problem("%s: answer %v, reference %v", what, a, want)
	}
}

// openLoop runs one phase of segment seg at rate for dur seconds on stream.
func (r *run) openLoop(seg int, name string, topo *topology, pr *prepared, rate, dur float64, stream int64, timed bool) (phaseSummary, error) {
	n := int(rate * dur)
	if n < 1 {
		n = 1
	}
	items := r.sh.schedule(r.seed, stream, n, pr.w.byKey)
	cpu0, err := topo.cpuSeconds()
	if err != nil {
		return phaseSummary{}, err
	}
	p, err := runPhase(name, topo.entry, rate, items, 2, pr.reads, pr.writes, r.table)
	if err != nil {
		return phaseSummary{}, err
	}
	cpu1, err := topo.cpuSeconds()
	if err != nil {
		return phaseSummary{}, err
	}
	s := p.summarize()
	r.attempted += len(items)
	r.failed += s.failed
	ph := phaseRun{seg: seg, w: pr.w, served: pr.served, p: p, ok: s.readOK + s.writeOK, timed: timed,
		rate: rate, cpu: cpu1 - cpu0}
	r.phases = append(r.phases, ph)
	r.logf("%-8s %7.0f rps  n=%-6d ok=%-6d p50=%.3fms p99=%.3fms late_p99=%.3fms cpu/req=%.1fus window_p99=[%s]ms",
		name, rate, len(items), ph.ok, quantile(s.readLat, 0.5), quantile(s.readLat, 0.99), s.lateP99Ms,
		ph.cpu*1e6/float64(max(ph.ok, 1)), fmtFloats(s.winP99, "%.2f"))
	return s, nil
}

// timedPhase is openLoop for lo or hi. A phase whose generator ran late is
// invalid: it is reported and measured again, up to timedAttempts times in
// all, and the run fails if no attempt is valid. A late generator on an
// idle program is host noise; a program that starves the generator fails
// every attempt.
func (r *run) timedPhase(seg int, name string, topo *topology, pr *prepared, rate, dur float64, stream int64) (phaseSummary, error) {
	limit := lateLimitFrac * float64(latencyLimit) / 1e6
	var s phaseSummary
	for attempt := 1; attempt <= timedAttempts; attempt++ {
		var err error
		if s, err = r.openLoop(seg, name, topo, pr, rate, dur, stream, true); err != nil {
			return s, err
		}
		if s.lateP99Ms <= limit {
			return s, nil
		}
		r.logf("phase %s invalid: generator p99 lateness %.3f ms exceeds %.0f%% of the %v limit (attempt %d of %d)",
			name, s.lateP99Ms, lateLimitFrac*100, latencyLimit, attempt, timedAttempts)
		r.phases[len(r.phases)-1].timed = false
	}
	r.problem("phase %s invalid in all %d attempts: generator p99 lateness %.3f ms exceeds %.0f%% of the %v limit",
		name, timedAttempts, s.lateP99Ms, lateLimitFrac*100, latencyLimit)
	return s, nil
}

// staircase searches the highest offered rate that meets the latency
// limit with no growing backlog. It is an adaptive up-down staircase: each
// probe steps the rate up after a pass and down after a failure; the step
// halves at every reversal (down to staircaseMinStep) and doubles after two
// moves the same way (up to staircaseFirstStep), so it closes in on the
// rate a probe passes half the time and follows it quickly when the host's
// speed drifts. The estimate is the geometric mean of the probes from the
// first reversal on, so it averages over most of the run instead of
// resting on one short window.
type staircase struct {
	rate, step float64
	last, run  int       // last direction (+1 up, -1 down) and its run length
	rates      []float64 // every probed rate, in order
	bestPass   float64
	reversed   bool
	settled    int // index of the probe at the first reversal
}

func newStaircase(start float64) *staircase {
	return &staircase{rate: start, step: staircaseFirstStep}
}

func (sc *staircase) record(pass bool) {
	sc.rates = append(sc.rates, sc.rate)
	dir := -1
	if pass {
		dir = 1
		sc.bestPass = math.Max(sc.bestPass, sc.rate)
	}
	switch {
	case sc.last != 0 && dir != sc.last:
		if !sc.reversed {
			sc.settled = len(sc.rates) - 1
		}
		sc.reversed = true
		sc.step = math.Max(math.Sqrt(sc.step), staircaseMinStep)
		sc.run = 1
	case sc.reversed && sc.run >= 2:
		sc.step = math.Min(sc.step*sc.step, staircaseFirstStep)
		sc.run++
	default:
		sc.run++
	}
	sc.last = dir
	sc.rate *= math.Pow(sc.step, float64(dir))
}

// estimate is the staircase's answer; before the first reversal it is the
// highest rate that passed (or, if none did yet, the last one probed).
func (sc *staircase) estimate() float64 {
	if !sc.reversed {
		if sc.bestPass > 0 || len(sc.rates) == 0 {
			return sc.bestPass
		}
		return sc.rates[len(sc.rates)-1]
	}
	tail := sc.rates[sc.settled:]
	var logSum float64
	for _, r := range tail {
		logSum += math.Log(r)
	}
	return math.Exp(logSum / float64(len(tail)))
}

// writeProbe times closed-loop feedback writes after the read phases.
func (r *run) writeProbe(topo *topology, pr *prepared) error {
	cc, err := dialClosed(topo.entry)
	if err != nil {
		return err
	}
	defer cc.Close()
	items := r.sh.schedule(r.seed, streamWrite, writeProbeN, pr.w.byKey)
	for _, it := range items {
		t := time.Now()
		status, _, err := cc.do(pr.writes[it.pool], 30*time.Second)
		r.attempted++
		if err != nil || status != 200 {
			r.failed++
			r.problem("write probe: status %d: %v", status, err)
			continue
		}
		r.writeMs = append(r.writeMs, float64(time.Since(t))/1e6)
	}
	return nil
}

// endToEnd runs one workload with tracing off and returns its metrics.
//
// The run is a sequence of segments. Each segment sets the program up
// afresh, then runs slicesPerSegment rounds of a lo slice, a hi slice and
// a share of the max-rate probes against it. Every metric is taken over
// all segments, so each one samples the whole run rather than one stretch
// of it: the host's speed drifts by tens of percent over seconds. Each
// segment is followed by sweepsPerSegment sweeps (see sweep). On crl-read
// the sweeps set up fresh servers on worlds derived from the seed, while
// its segments run on world 1 like the others: its rate metrics do not
// depend on which worlds the seed picked.
func (r *run) endToEnd() (map[string]float64, error) {
	segs := segments
	S := r.seconds
	sliceDur := 0.3 * S / float64(segs*slicesPerSegment)
	probesPerSegment := maxRateProbes / segs
	probeDur := 0.4 * S / float64(maxRateProbes)
	sc := newStaircase(r.sh.hi * staircaseStart)
	pr, err := r.prepare(1)
	if err != nil {
		return nil, err
	}
	sweepWorlds := make([]*prepared, segs*sweepsPerSegment)
	for i := range sweepWorlds {
		sweepWorlds[i] = pr
		if r.sh.derivedWorlds {
			if sweepWorlds[i], err = r.prepare(derivedWorldSeed(r.seed, i)); err != nil {
				return nil, err
			}
		}
	}
	// The benchmark runs at a higher CPU priority than the program, so a
	// garbage collection of its own heap (worlds, reference servers) during a
	// phase would stall the program under test. Collect once now and hold
	// collection off until the answers are checked; a run allocates only a
	// few megabytes of phase records in between.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	var topo *topology
	defer func() {
		if topo != nil {
			topo.stop()
		}
	}()
	var lo, hi []phaseSummary
	var rss []float64
	for seg := 0; seg < segs; seg++ {
		if topo, err = r.setUp(fmt.Sprintf("seg%d", seg), pr, false); err != nil {
			return nil, err
		}
		r.logSetup(fmt.Sprintf("segment %d", seg), pr)
		stream := int64(seg) * 1000
		for k := 0; k < slicesPerSegment; k++ {
			sub := stream + int64(k)*10
			l, err := r.timedPhase(seg, "lo", topo, pr, r.sh.lo, sliceDur, sub+streamLo)
			if err != nil {
				return nil, err
			}
			h, err := r.timedPhase(seg, "hi", topo, pr, r.sh.hi, sliceDur, sub+streamHi)
			if err != nil {
				return nil, err
			}
			lo, hi = append(lo, l), append(hi, h)
			for j := k * probesPerSegment / slicesPerSegment; j < (k+1)*probesPerSegment/slicesPerSegment; j++ {
				name := fmt.Sprintf("probe%d", len(sc.rates))
				s, err := r.openLoop(seg, name, topo, pr, sc.rate, probeDur, stream+streamProbe+int64(j), false)
				if err != nil {
					return nil, err
				}
				sc.record(s.meetsLimit())
			}
		}
		if r.sh.writeEvery == 0 {
			if err := r.writeProbe(topo, pr); err != nil {
				return nil, err
			}
		}
		m, err := topo.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, m)
		topo.stop()
		topo = nil
		for j := 0; j < sweepsPerSegment; j++ {
			i := seg*sweepsPerSegment + j
			if err := r.sweep(fmt.Sprintf("sweep%d", i), sweepWorlds[i]); err != nil {
				return nil, err
			}
		}
	}
	r.logf("max rate %.0f rps (staircase over %d probes: %s)", sc.estimate(), len(sc.rates), fmtFloats(sc.rates, "%.0f"))

	debug.SetGCPercent(gcPercent)
	captured := r.checkPhases()
	var reads, onTime int
	for i := range hi {
		reads += hi[i].reads
		onTime += hi[i].onTime
		if r.sh.writeEvery > 0 {
			r.writeMs = append(append(r.writeMs, lo[i].writeLat...), hi[i].writeLat...)
		}
	}
	sort.Float64s(r.coldMs)
	sort.Float64s(r.writeMs)
	cpuPerReq := r.cpuPerRequest()
	if cpuPerReq == 0 || reads == 0 {
		return nil, fmt.Errorf("no successful request at hi")
	}
	return map[string]float64{
		"setup_s":             median(r.setupS),
		"lat_p50_ms_lo":       windowMedian(lo, 0.5),
		"lat_p99_ms_lo":       windowMedian(lo, 0.99),
		"lat_p50_ms_hi":       windowMedian(hi, 0.5),
		"lat_p99_ms_hi":       windowMedian(hi, 0.99),
		"lat_p90_ms_lo":       windowMedian(lo, 0.9),
		"lat_p90_ms_hi":       windowMedian(hi, 0.9),
		"on_time_share_hi":    float64(onTime) / float64(reads),
		"max_rate_rps":        sc.estimate(),
		"cpu_us_per_req":      cpuPerReq,
		"rss_mb":              median(rss),
		"ok_share":            1 - float64(r.failed)/float64(r.attempted),
		"policy_share":        1 - float64(r.degraded)/float64(r.degraded+r.normal),
		"captured_importance": captured,
		"cold_p50_ms":         quantile(r.coldMs, 0.5),
		"cold_p90_ms":         quantile(r.coldMs, 0.9),
		"write_p50_ms":        quantile(r.writeMs, 0.5),
		"write_p95_ms":        quantile(r.writeMs, 0.95),
	}, nil
}

// cpuPerRequest is program CPU microseconds per answered request over the
// phases offered hi or more (the hi slices and the max-rate probes). The
// host runs slower for seconds at a time, so it is taken over the middle
// half of those phases ranked by their own CPU per request: a total over
// every phase moves with those stretches, and a median of one phase's
// figure is quantised by the 10 ms clock tick of /proc.
func (r *run) cpuPerRequest() float64 {
	var phs []phaseRun
	for _, ph := range r.phases {
		if ph.rate >= r.sh.hi && ph.ok > 0 {
			phs = append(phs, ph)
		}
	}
	per := func(ph phaseRun) float64 { return ph.cpu / float64(ph.ok) }
	sort.Slice(phs, func(i, j int) bool { return per(phs[i]) < per(phs[j]) })
	var cpu float64
	var ok int
	for _, ph := range phs[len(phs)/4 : len(phs)-len(phs)/4] {
		cpu += ph.cpu
		ok += ph.ok
	}
	if ok == 0 {
		return 0
	}
	return cpu * 1e6 / float64(ok)
}

// windowMedian is the median, over every latency window of the given
// slices, of the window's p50 (q = 0.5) or p99.
func windowMedian(slices []phaseSummary, q float64) float64 {
	var qs []float64
	for _, s := range slices {
		switch q {
		case 0.5:
			qs = append(qs, s.winP50...)
		case 0.9:
			qs = append(qs, s.winP90...)
		default:
			qs = append(qs, s.winP99...)
		}
	}
	return median(qs)
}

func fmtFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// sweep sets up a fresh server on pr's world, timing its set-up and first
// touches, and on a workload without open-loop writes times the write
// probe on it.
func (r *run) sweep(tag string, pr *prepared) error {
	topo, err := r.setUp(tag, pr, false)
	if err != nil {
		return err
	}
	defer topo.stop()
	r.logSetup(tag, pr)
	if r.sh.writeEvery == 0 {
		return r.writeProbe(topo, pr)
	}
	return nil
}

func (r *run) logSetup(what string, pr *prepared) {
	r.logf("%s: world %d, setup %.3fs, first touches p50 %.1fms",
		what, pr.w.seed, r.setupS[len(r.setupS)-1], median(r.coldMs[len(r.coldMs)-pr.w.keys:]))
}

// derivedWorldSeed derives the world of the i-th sweep of a workload with
// derivedWorlds.
func derivedWorldSeed(seed int64, i int) int64 { return 1000 + seed*97 + int64(i) }

// reportShardSplit prints how the allocates between two snapshots spread
// over the shards; the ring's key ownership decides it and it is not
// reweighted.
func (r *run) reportShardSplit(before, after *snapshot) {
	var total int64
	d := make([]int64, len(after.shards))
	for i := range after.shards {
		d[i] = after.shards[i].Allocates - before.shards[i].Allocates
		total += d[i]
	}
	for i, n := range d {
		r.logf("shard s%d served %d of %d allocates (%.1f%%)", i, n, total, 100*float64(n)/float64(max(total, 1)))
	}
}

// checkPhases verifies every open-loop answer and returns the mean captured
// importance over the timed phases.
func (r *run) checkPhases() float64 {
	decoded := map[int32][]int{}
	feasible := map[int32]error{}
	decode := func(w *world, id int32) ([]int, error) {
		if a, ok := decoded[id]; ok {
			return a, feasible[id]
		}
		a, err := parseAllocation([]byte(r.table.vals[id]))
		if err == nil {
			err = w.checkFeasible(a)
		}
		decoded[id], feasible[id] = a, err
		return a, err
	}
	versioned := r.sh.writeEvery > 0
	var vreads []vread
	var capSum float64
	var capN int
	for _, ph := range r.phases {
		p := ph.p
		for i, it := range p.items {
			if it.write || p.status[i] != 200 {
				continue
			}
			if p.alloc[i] < 0 {
				r.failed++
				r.problem("%s item %d: no allocation in answer", p.name, i)
				continue
			}
			a, err := decode(ph.w, p.alloc[i])
			if err != nil {
				r.failed++
				r.problem("%s item %d: %v", p.name, i, err)
				continue
			}
			if ph.timed {
				capSum += ph.w.pool[it.pool].captured(a)
				capN++
			}
			if p.mode[i] != modeNormal {
				r.degraded++
				continue
			}
			r.normal++
			if versioned {
				vreads = append(vreads, vread{ph: ph, i: i, a: a})
				continue
			}
			if !equalAlloc(a, ph.served[it.pool]) {
				r.failed++
				r.problem("%s item %d (pool %d): answer %v, reference %v", p.name, i, it.pool, a, ph.served[it.pool])
			}
		}
	}
	if versioned {
		r.checkVersioned(vreads)
	}
	if capN == 0 {
		return 0
	}
	return capSum / float64(capN)
}

// vread is a read answered while feedback refits were changing the local
// model.
type vread struct {
	ph       phaseRun
	i        int
	a        []int
	vlo, vhi int
}

// checkVersioned checks reads of a writing workload. Feedback arrives on
// one connection, so a server applies it in send order and its sequence of
// local models is fixed; a read may have been answered by any model
// published between the last refit acknowledged before it was sent and the
// last refit requested before its answer arrived. For each segment a fresh
// reference, warmed like the segment's server, replays the same feedback in
// the same order, and each read must equal the reference under one of the
// models in its range.
func (r *run) checkVersioned(reads []vread) {
	bySeg := map[int][]vread{}
	last := 0
	for _, rd := range reads {
		bySeg[rd.ph.seg] = append(bySeg[rd.ph.seg], rd)
		last = max(last, rd.ph.seg)
	}
	for seg := 0; seg <= last; seg++ {
		r.checkSegment(seg, bySeg[seg])
	}
}

func (r *run) checkSegment(seg int, reads []vread) {
	type wr struct {
		ph         phaseRun
		i          int
		sent, recv int64
	}
	abs := func(p *phase, ns int64) int64 { return int64(p.start.Sub(r.start)) + ns }
	var writes []wr
	var refitSent, refitRecv []int64
	var refitAt []int // index into writes of each refit
	var w *world
	for _, ph := range r.phases {
		if ph.seg != seg {
			continue
		}
		p := ph.p
		w = ph.w
		for i, it := range p.items {
			if !it.write {
				continue
			}
			if p.status[i] != 200 {
				r.problem("write %s item %d failed: model sequence unknown, reads unchecked", p.name, i)
				return
			}
			writes = append(writes, wr{ph: ph, i: i, sent: abs(p, p.sent[i]), recv: abs(p, p.recv[i])})
			if p.refit[i] {
				refitAt = append(refitAt, len(writes)-1)
				refitSent = append(refitSent, abs(p, p.sent[i]))
				refitRecv = append(refitRecv, abs(p, p.recv[i]))
			}
		}
	}
	buckets := make([][]int, len(refitAt)+1)
	for j := range reads {
		rd := &reads[j]
		p := rd.ph.p
		sent, recv := abs(p, p.sent[rd.i]), abs(p, p.recv[rd.i])
		rd.vlo = sort.Search(len(refitRecv), func(k int) bool { return refitRecv[k] >= sent })
		rd.vhi = sort.Search(len(refitSent), func(k int) bool { return refitSent[k] >= recv })
		buckets[rd.vlo] = append(buckets[rd.vlo], j)
	}
	if w == nil {
		return
	}
	ref, err := w.newReference()
	if err == nil {
		_, err = w.warmReference(ref, r.sh.crl)
	}
	if err != nil {
		r.problem("segment %d reference: %v", seg, err)
		return
	}
	ctx := context.Background()
	applied := 0
	var active []int
	for v := 0; v <= len(refitAt); v++ {
		active = append(active, buckets[v]...)
		memo := map[int32][]int{}
		keep := active[:0]
		for _, j := range active {
			rd := &reads[j]
			it := rd.ph.p.items[rd.i]
			want, ok := memo[it.pool]
			if !ok {
				var err error
				want, err = refAllocate(ref, w.pool[it.pool].allocateRequest(false))
				if err != nil {
					r.problem("reference at model %d: %v", v, err)
					return
				}
				memo[it.pool] = want
			}
			switch {
			case equalAlloc(rd.a, want):
			case rd.vhi > v:
				keep = append(keep, j)
			default:
				r.failed++
				r.problem("%s item %d (pool %d): answer %v matches no local model in %d..%d",
					rd.ph.p.name, rd.i, it.pool, rd.a, rd.vlo, rd.vhi)
			}
		}
		active = keep
		if v == len(refitAt) {
			break
		}
		for ; applied <= refitAt[v]; applied++ {
			wr := writes[applied]
			it := wr.ph.p.items[wr.i]
			fb := feedbackFor(wr.ph.w.pool[it.pool], wr.ph.served[it.pool])
			resp, err := ref.Feedback(ctx, fb)
			if err != nil {
				r.problem("reference feedback: %v", err)
				return
			}
			if resp.Refitted != wr.ph.p.refit[wr.i] {
				r.problem("feedback %d: server refitted=%v, reference refitted=%v", applied, wr.ph.p.refit[wr.i], resp.Refitted)
				return
			}
		}
	}
	r.logf("segment %d: checked %d reads against %d local models", seg, len(reads), len(refitAt)+1)
}
