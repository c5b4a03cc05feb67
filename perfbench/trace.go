package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/rl"
	"repro/internal/serve"
)

// The traced run. It is separate from the end-to-end run, which has no
// tracing: here the benchmark measures the program's layers one public call
// at a time. It has three parts:
//
//   - a short live run of the workload on one server, read only through
//     /v1/stats diffs and /proc at phase boundaries (batching, refits,
//     cache and training counters);
//   - a cluster probe of three fresh gossiping shards plus the router:
//     router overhead and CPU, shard share (the per-shard split is
//     printed), retries, ejections and gossip cost;
//   - an in-process replay of a sample of the workload's requests through
//     the serve, core, alloc, rl, mathx, cluster and experiments calls on
//     the same world, recording one span per call. Spans stay in memory and
//     are written to a file when the run ends.

const (
	traceSample = 400 // requests replayed in-process with spans
	kernelReps  = 300 // calls per timed layer function outside spans
	pairSample  = 400 // router-versus-direct request pairs
	quietWindow = 2 * time.Second
	// childSumTol is the largest allowed gap between a span and the sum of
	// its children, as a share of the span.
	childSumTol = 0.10
	// traceAttempts bounds how often one request is replayed.
	traceAttempts = 3
)

// span is one timed call. Spans of one request share req.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].End = int64(time.Since(t.base)) }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *run) traced(outDir string) (map[string]float64, error) {
	vals := map[string]float64{}
	S := r.seconds
	pr, err := r.prepare(1)
	if err != nil {
		return nil, err
	}
	vals["experiments.scenario_build_ms"] = float64(pr.w.buildDur) / 1e6

	// Live part: one set-up, then short lo and hi phases.
	topo, err := r.setUp("live", pr, false)
	if err != nil {
		return nil, err
	}
	defer topo.stop()
	warm, err := topo.snapshot()
	if err != nil {
		return nil, err
	}
	ws := warm.sum()
	vals["core.warm_start_share"] = ratio(ws.Cache.WarmStarts, ws.Cache.Trainings)
	vals["core.early_stop_share"] = ratio(ws.Cache.EarlyStops, ws.Cache.Trainings)
	if _, err := r.openLoop(0, "lo", topo, pr, r.sh.lo, 0.1*S, streamLo, false); err != nil {
		return nil, err
	}
	if _, err := r.openLoop(0, "hi", topo, pr, r.sh.hi, 0.1*S, streamHi, false); err != nil {
		return nil, err
	}
	after, err := topo.snapshot()
	if err != nil {
		return nil, err
	}
	as := after.sum()
	batchSize := ratio(as.Cache.BatchedRequests-ws.Cache.BatchedRequests, as.Cache.BatchRuns-ws.Cache.BatchRuns)
	vals["serve.batch_size"] = batchSize
	vals["serve.solo_share"] = ratio(as.Cache.SoloRequests-ws.Cache.SoloRequests, as.Allocates-ws.Allocates)
	vals["serve.refits"] = float64(as.Refits - ws.Refits)
	vals["serve.cache_hit_ratio"] = ratio(as.Cache.Hits-ws.Cache.Hits, as.Cache.Hits-ws.Cache.Hits+as.Cache.Misses-ws.Cache.Misses)
	vals["serve.trainings"] = float64(as.Cache.Trainings - ws.Cache.Trainings)
	window := as.WindowSize

	// Cluster probe.
	topo.stop()
	ctopo, err := r.setUp("probe", pr, true)
	if err != nil {
		return nil, err
	}
	defer ctopo.stop()
	if err := r.clusterProbe(ctopo, pr, vals); err != nil {
		return nil, err
	}
	ctopo.stop()
	r.checkPhases()

	// In-process part.
	if err := r.replay(pr, window, batchSize, vals, outDir); err != nil {
		return nil, err
	}
	return vals, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// clusterProbe measures the routing tier of a running cluster.
func (r *run) clusterProbe(t *topology, pr *prepared, vals map[string]float64) error {
	gossip := func(s *snapshot) int64 {
		var n int64
		add := func(m *membershipStats) {
			if m != nil {
				n += m.PingsSent + m.IndirectReqs + m.JoinsSent
			}
		}
		for _, ss := range s.shards {
			add(ss.Membership)
		}
		if s.router != nil {
			add(s.router.Membership)
		}
		return n
	}
	q0, err := t.snapshot()
	if err != nil {
		return err
	}
	time.Sleep(quietWindow)
	q1, err := t.snapshot()
	if err != nil {
		return err
	}
	secs := q1.at.Sub(q0.at).Seconds()
	vals["cluster.idle_cpu_ms_per_s"] = (q1.cpuSum - q0.cpuSum) * 1000 / secs
	vals["cluster.gossip_msgs_per_s"] = float64(gossip(q1)-gossip(q0)) / secs

	// Router-versus-direct pairs: the same request through the router and
	// straight to the shard that owns its key, alternating which goes first.
	ring, err := cluster.NewRing(cluster.DefaultVNodes, []string{"s0", "s1", "s2"})
	if err != nil {
		return err
	}
	via, err := dialClosed(t.router.addr)
	if err != nil {
		return err
	}
	defer via.Close()
	direct := make([]*closedConn, len(t.shards))
	for i, s := range t.shards {
		if direct[i], err = dialClosed(s.addr); err != nil {
			return err
		}
		defer direct[i].Close()
	}
	items := r.sh.schedule(r.seed, streamTrace+1, pairSample, pr.w.byKey)
	var viaMs, directMs []float64
	p0, err := t.snapshot()
	if err != nil {
		return err
	}
	for j, it := range items {
		if it.write {
			continue
		}
		owner := 0
		fmt.Sscanf(ring.Owner(pr.w.pool[it.pool].key), "s%d", &owner)
		f := pr.reads[it.pool]
		for k := 0; k < 2; k++ {
			cc, dst := via, &viaMs
			if (j+k)%2 == 1 {
				cc, dst = direct[owner], &directMs
			}
			t0 := time.Now()
			status, body, err := cc.do(f, 10*time.Second)
			r.attempted++
			if err != nil || status != 200 {
				r.failed++
				r.problem("cluster probe: status %d: %v", status, err)
				continue
			}
			*dst = append(*dst, float64(time.Since(t0))/1e3)
			r.checkAnswer(pr.w, expectThroughCluster(r.sh, pr.served[it.pool]), body, "cluster probe")
		}
	}
	p1, err := t.snapshot()
	if err != nil {
		return err
	}
	vals["cluster.router_overhead_us"] = median(viaMs) - median(directMs)
	ri := len(t.procs) - 1
	vals["cluster.router_cpu_us_per_req"] = (p1.cpu[ri] - p0.cpu[ri]) * 1e6 / float64(max(len(viaMs), 1))
	var total int64
	minShare := math.Inf(1)
	for i := range p1.shards {
		total += p1.shards[i].Allocates - p0.shards[i].Allocates
	}
	for i := range p1.shards {
		minShare = math.Min(minShare, ratio(p1.shards[i].Allocates-p0.shards[i].Allocates, total))
	}
	vals["cluster.shard_share_min"] = minShare
	r.reportShardSplit(p0, p1)
	vals["cluster.retries"] = float64(p1.router.Retries - q0.router.Retries)
	vals["cluster.ejections"] = float64(p1.router.Ejections - q0.router.Ejections)

	keys := make([]int, 4096)
	for i := range keys {
		keys[i] = i % pr.w.keys
	}
	t0 := time.Now()
	for rep := 0; rep < 50; rep++ {
		for _, k := range keys {
			sinkString = ring.Owner(k)
		}
	}
	vals["cluster.ring_owner_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(50*len(keys))
	return nil
}

// sinkString keeps timed calls from being optimised away.
var sinkString string

// replay runs the in-process part: per-cluster policies trained the way
// the server trains them, a span-traced replay of sampled requests, and
// tight timing loops over each layer's public calls.
func (r *run) replay(pr *prepared, window int, batchSize float64, vals map[string]float64, outDir string) error {
	w := pr.w
	cfg := serveConfig(w.seed)
	ctx := context.Background()

	// core: train every key's policy in key order with the server's
	// per-cluster configuration and nearest-neighbour warm start.
	crls := make([]*core.CRL, w.keys)
	var trainMs, steps []float64
	for k := 0; k < w.keys; k++ {
		crl, res, dur, err := trainLikeServer(w, cfg, crls, k)
		if err != nil {
			return err
		}
		crls[k] = crl
		trainMs = append(trainMs, float64(dur)/1e6)
		steps = append(steps, float64(res.TotalSteps))
	}
	vals["core.train_ms"] = median(trainMs)
	vals["rl.train_steps"] = median(steps)

	items := r.sh.schedule(r.seed, streamTrace, traceSample, w.byKey)
	handler := serve.NewHandler(w.ref, serve.HTTPOptions{})
	// Room for every span up front: growing the slice mid-request would
	// copy it inside a parent span but outside its children.
	tr := &tracer{spans: make([]span, 0, 10*len(items))}
	runtime.GC()
	tr.base = time.Now()
	var env core.Environment
	var knn core.KNNScratch
	var pack alloc.PackScratch
	var combined, featBuf []float64
	var out core.Allocation
	outs := []core.Allocation{nil}
	local := w.scn.Local
	replayOne := func(it item, rid int32) error {
		e := w.pool[it.pool]
		req := e.allocateRequest(r.sh.crl)
		body := mustJSON(req)
		root := tr.begin("request", -1, rid)

		s := tr.begin("serve.http", root, rid)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/allocate", bytes.NewReader(body)))
		tr.end(s)
		if rec.Code != 200 {
			return fmt.Errorf("in-process handler: status %d: %s", rec.Code, rec.Body.String())
		}

		s = tr.begin("serve.allocate", root, rid)
		_, err := w.ref.Allocate(ctx, req)
		tr.end(s)
		if err != nil {
			return err
		}

		pipe := tr.begin("bench.pipeline", root, rid)
		s = tr.begin("core.nearest_index", pipe, rid)
		key, _, err := w.scn.Store.NearestIndex(e.sig)
		tr.end(s)
		if err != nil {
			return err
		}
		crl := crls[key]
		s = tr.begin("core.define_env", pipe, rid)
		err = crl.DefineEnvironmentInto(e.sig, &env, &knn)
		tr.end(s)
		if err != nil {
			return err
		}
		if r.sh.crl {
			s = tr.begin("core.rollout", pipe, rid)
			outs[0] = outs[0][:0]
			err = crl.PredictBatchInto([]*core.Environment{&env}, outs)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("alloc.pack", pipe, rid)
			out, _ = alloc.PackByScoreInto(w.scn.Template, env.Importance, 1.0, out, &pack)
			tr.end(s)
		} else {
			s = tr.begin("alloc.combine_scores", pipe, rid)
			combined, featBuf, err = alloc.CombineScoresInto(local, env.Importance, e.feats, cfg.W1, cfg.W2, combined, featBuf)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("alloc.pack", pipe, rid)
			out, _ = alloc.PackByScoreInto(w.scn.Template, combined, cfg.CoverageTarget, out, &pack)
			tr.end(s)
		}
		tr.end(pipe)
		tr.end(root)
		return nil
	}
	// A request whose spans miss the child-sum check is replayed, up to
	// traceAttempts times: an interrupt landing between two child spans of
	// the few-microsecond DCTA pipeline is the host's, not a layer's. Work a
	// layer does outside its spans fails every attempt.
	overhead, uncovered := spanOverhead()
	retried := 0
	for id, it := range items {
		if it.write {
			continue
		}
		for attempt := 1; ; attempt++ {
			from := len(tr.spans)
			if err := replayOne(it, int32(id)); err != nil {
				return err
			}
			if attempt == traceAttempts || spansFit(tr.spans, from, overhead, uncovered) {
				break
			}
			tr.spans = tr.spans[:from]
			retried++
		}
	}
	fmt.Printf("replayed %d requests again after a child-sum miss\n", retried)
	vals["trace.span_overhead_ns"] = overhead
	gap, err := r.reportSpans(tr, vals, overhead, uncovered)
	if err != nil {
		return err
	}
	vals["trace.child_gap_max"] = gap
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.sh.name, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)

	// Tight loops over each layer call on the sampled requests: prep runs
	// untimed before each timed call.
	reads := make([]entry, 0, len(items))
	for _, it := range items {
		if !it.write {
			reads = append(reads, w.pool[it.pool])
		}
	}
	timeCalls := func(name string, prep, call func(e entry) error) error {
		ds := make([]float64, 0, kernelReps)
		for i := 0; i < kernelReps; i++ {
			e := reads[i%len(reads)]
			if err := prep(e); err != nil {
				return err
			}
			t0 := time.Now()
			if err := call(e); err != nil {
				return err
			}
			ds = append(ds, float64(time.Since(t0))/1e3)
		}
		vals[name] = median(ds)
		return nil
	}
	noPrep := func(entry) error { return nil }
	define := func(e entry) error { return crls[e.key].DefineEnvironmentInto(e.sig, &env, &knn) }
	bN := int(math.Max(2, math.Round(batchSize)))
	envs := make([]*core.Environment, bN)
	for i := range envs {
		envs[i] = &core.Environment{}
	}
	bouts := make([]core.Allocation, bN)
	rollout := func(n int) (func(entry) error, func(entry) error) {
		prep := func(e entry) error {
			for _, en := range envs[:n] {
				if err := crls[e.key].DefineEnvironmentInto(e.sig, en, &knn); err != nil {
					return err
				}
			}
			for i := range bouts {
				bouts[i] = bouts[i][:0]
			}
			return nil
		}
		return prep, func(e entry) error { return crls[e.key].PredictBatchInto(envs[:n], bouts[:n]) }
	}
	prep1, call1 := rollout(1)
	prepN, callN := rollout(bN)
	for _, m := range []struct {
		name       string
		prep, call func(entry) error
	}{
		{"core.nearest_index_us", noPrep, func(e entry) error {
			_, _, err := w.scn.Store.NearestIndex(e.sig)
			return err
		}},
		{"core.define_env_us", noPrep, define},
		{"core.rollout_us_b1", prep1, call1},
		{"core.rollout_us_bN", prepN, callN},
		{"alloc.combine_scores_us", define, func(e entry) error {
			var err error
			combined, featBuf, err = alloc.CombineScoresInto(local, env.Importance, e.feats, cfg.W1, cfg.W2, combined, featBuf)
			return err
		}},
		{"alloc.pack_us", define, func(e entry) error {
			out, _ = alloc.PackByScoreInto(w.scn.Template, env.Importance, cfg.CoverageTarget, out, &pack)
			return nil
		}},
	} {
		if err := timeCalls(m.name, m.prep, m.call); err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
	}

	if err := kernelMetrics(w, vals); err != nil {
		return err
	}
	if err := fitAndFeedback(pr, window, vals); err != nil {
		return err
	}
	return nil
}

// trainLikeServer trains key k's policy the way internal/serve does: the
// ClusterNeighborhood nearest stored environments as the sub-store, the
// per-cluster seed, early stopping, and a warm start from the nearest
// already-trained key with the episode budget cut to a quarter.
func trainLikeServer(w *world, cfg serve.Config, trained []*core.CRL, k int) (*core.CRL, *rl.TrainResult, time.Duration, error) {
	rep, err := w.scn.Store.At(k)
	if err != nil {
		return nil, nil, 0, err
	}
	near, err := w.scn.Store.Nearest(rep.Signature, cfg.ClusterNeighborhood)
	if err != nil {
		return nil, nil, 0, err
	}
	sub := core.NewEnvironmentStore()
	for _, env := range near {
		if err := sub.Add(env); err != nil {
			return nil, nil, 0, err
		}
	}
	c := cfg.CRL
	c.K, c.Blend = core.DefaultCRLConfig().K, true
	c.Seed = cfg.Seed + int64(k)*7919
	c.DQN.Seed = c.Seed + 1
	c.StopWindow = 3
	var donor *core.CRL
	var prov core.WarmStart
	best := math.Inf(1)
	for j, d := range trained {
		if d == nil {
			continue
		}
		env, err := w.scn.Store.At(j)
		if err != nil {
			return nil, nil, 0, err
		}
		if dist := mathx.EuclideanDistance(rep.Signature, env.Signature); dist < best {
			best, donor, prov = dist, d, core.WarmStart{Source: j, Distance: dist}
		}
	}
	if donor != nil {
		c.Episodes = max(1, int(float64(c.Episodes)*cfg.WarmEpisodeFrac))
	}
	t0 := time.Now()
	crl, err := core.NewCRL(w.scn.Template.Clone(), sub, c)
	if err != nil {
		return nil, nil, 0, err
	}
	if donor != nil {
		if err := crl.WarmStartFrom(donor, prov); err != nil {
			return nil, nil, 0, err
		}
	}
	res, err := crl.Train()
	if err != nil {
		return nil, nil, 0, err
	}
	return crl, res, time.Since(t0), nil
}

// kernelMetrics times DQN.Observe and the rollout's forward GEMMs at the
// MDP's shapes, and computes the rollout's operation count and bytes moved
// from those shapes.
func kernelMetrics(w *world, vals map[string]float64) error {
	probe, err := core.NewAllocEnv(w.scn.Template, nil)
	if err != nil {
		return err
	}
	state, actions := probe.StateSize(), probe.ActionSize()
	const hidden = 64 // the DQN's default two hidden layers of 64
	layers := [][2]int{{state, hidden}, {hidden, hidden}, {hidden, actions}}

	// Observe is fed the MDP's own transitions: random valid actions over
	// the stored environments, as early training explores.
	dqn, err := rl.NewDQN(state, actions, rl.DQNConfig{Seed: 7})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(11))
	var obs []float64
	for i := 0; len(obs) < 400; {
		env, err := w.scn.Store.At(i % w.keys)
		if err != nil {
			return err
		}
		mdp, err := core.NewAllocEnv(w.scn.Template, env.Importance)
		if err != nil {
			return err
		}
		s := mdp.Reset()
		for !mdp.Done() {
			valid := mdp.ValidActions()
			a := valid[rng.Intn(len(valid))]
			next, reward, done, err := mdp.Step(a)
			if err != nil {
				return err
			}
			tr := rl.Transition{State: s, Action: a, Reward: reward, NextState: next, NextValid: mdp.ValidActions(), Done: done}
			t0 := time.Now()
			if err := dqn.Observe(tr); err != nil {
				return err
			}
			if i >= 200 { // past the replay warm-up every call learns
				obs = append(obs, float64(time.Since(t0))/1e3)
			}
			s = next
			i++
		}
	}
	vals["rl.observe_us"] = median(obs)

	var mm []float64
	as := make([]*mathx.Matrix, len(layers))
	bs := make([]*mathx.Matrix, len(layers))
	ds := make([]*mathx.Matrix, len(layers))
	for i, l := range layers {
		as[i], bs[i], ds[i] = mathx.NewMatrix(1, l[0]), mathx.NewMatrix(l[0], l[1]), mathx.NewMatrix(1, l[1])
		for j := range bs[i].Data {
			bs[i].Data[j] = rng.Float64()
		}
	}
	for rep := 0; rep < 2000; rep++ {
		t0 := time.Now()
		for i := range layers {
			if err := mathx.MatMul(ds[i], as[i], bs[i]); err != nil {
				return err
			}
		}
		mm = append(mm, float64(time.Since(t0))/1e3)
	}
	vals["mathx.matmul_us"] = median(mm)

	// One batch-1 rollout runs at most N+M forward passes (every task
	// placed or skipped, every processor closed); weights and biases are
	// read once per pass.
	passes := float64(len(w.scn.Template.Tasks) + len(w.scn.Template.Processors))
	var flops, bytesMoved float64
	for _, l := range layers {
		flops += 2 * float64(l[0]*l[1])
		bytesMoved += 8 * float64(l[0]*l[1]+l[1]+l[0]+l[1])
	}
	vals["mathx.rollout_flops"] = flops * passes
	vals["mathx.rollout_bytes"] = bytesMoved * passes
	fmt.Printf("mathx.rollout_flops and mathx.rollout_bytes are computed from tensor shapes (%d-%d-%d-%d network, %.0f forward passes per rollout, float64), not measured\n",
		state, hidden, hidden, actions, passes)
	return nil
}

// fitAndFeedback times LocalModel.Fit at the feedback window the live run
// reached (the scenario's own training size when the workload wrote
// nothing) and Server.Feedback on the reference.
func fitAndFeedback(pr *prepared, window int, vals map[string]float64) error {
	w := pr.w
	if window == 0 {
		window = len(w.scn.History) * len(w.scn.Template.Tasks)
	}
	var samples []alloc.LocalSample
	for i := 0; len(samples) < window; i++ {
		e := w.pool[i%len(w.pool)]
		samples = append(samples, alloc.SamplesFromDecision(e.feats, core.Allocation(pr.served[i%len(w.pool)]))...)
	}
	samples = samples[:window]
	var fits []float64
	for i := 0; i < 3; i++ {
		m := alloc.NewLocalModel(int64(i) + 808)
		t0 := time.Now()
		if err := m.Fit(samples); err != nil {
			return err
		}
		fits = append(fits, float64(time.Since(t0))/1e6)
	}
	vals["alloc.fit_ms"] = median(fits)

	var fb []float64
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		e := w.pool[i%len(w.pool)]
		t0 := time.Now()
		if _, err := w.ref.Feedback(ctx, feedbackFor(e, pr.served[i%len(w.pool)])); err != nil {
			return err
		}
		fb = append(fb, float64(time.Since(t0))/1e3)
	}
	vals["serve.feedback_us"] = median(fb)
	return nil
}

// spanOverhead returns the cost of recording one span (a begin and end
// pair) and the part of it a parent sees outside its child's interval, both
// in ns. The second is calibrated on parents with four empty children,
// which is how the replay nests its spans.
func spanOverhead() (perSpan, uncovered float64) {
	const reps, kids = 5000, 4
	t := &tracer{base: time.Now(), spans: make([]span, 0, reps*(kids+1))}
	gaps := make([]float64, 0, reps)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		p := t.begin("parent", -1, 0)
		var covered int64
		for k := 0; k < kids; k++ {
			c := t.begin("child", p, 0)
			t.end(c)
			covered += t.spans[c].End - t.spans[c].Start
		}
		t.end(p)
		gaps = append(gaps, float64(t.spans[p].End-t.spans[p].Start-covered)/kids)
	}
	return float64(time.Since(t0).Nanoseconds()) / (reps * (kids + 1)), median(gaps)
}

// childSumFits is the child-sum check for one parent of duration d whose n
// children cover childSum: the gap left after the known recording cost of
// the children is within childSumTol of the parent, give or take one span's
// recording cost (the tracer's resolution).
func childSumFits(d, childSum float64, n int, overheadNs, uncoveredNs float64) bool {
	return math.Abs(d-float64(n)*uncoveredNs-childSum) <= childSumTol*d+overheadNs
}

// spansFit applies childSumFits to every parent among spans[from:].
func spansFit(spans []span, from int, overheadNs, uncoveredNs float64) bool {
	sum := make([]float64, len(spans)-from)
	n := make([]int, len(spans)-from)
	for _, s := range spans[from:] {
		if s.Parent >= int32(from) {
			sum[int(s.Parent)-from] += float64(s.End - s.Start)
			n[int(s.Parent)-from]++
		}
	}
	for i, s := range spans[from:] {
		if n[i] > 0 && !childSumFits(float64(s.End-s.Start), sum[i], n[i], overheadNs, uncoveredNs) {
			return false
		}
	}
	return true
}

// reportSpans derives the span metrics, checks that every parent's
// children sum to within childSumTol of it, prints self time per layer and
// returns the largest child-sum gap seen. Recording a child costs the
// parent uncoveredNs outside the child's own interval; the check takes that
// known cost out before comparing, and allows one span's cost of
// resolution.
func (r *run) reportSpans(t *tracer, vals map[string]float64, overheadNs, uncoveredNs float64) (float64, error) {
	childSum := make([]int64, len(t.spans))
	children := make([]int, len(t.spans))
	byName := map[string][]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
			children[s.Parent]++
		}
	}
	selfByLayer := map[string]float64{}
	var rootTotal float64
	var roots int
	worst := 0.0
	for i, s := range t.spans {
		d := float64(s.End - s.Start)
		byName[s.Name] = append(byName[s.Name], d/1e3)
		if s.Parent < 0 {
			rootTotal += d
			roots++
		}
		if children[i] > 0 {
			gapNs := math.Abs(d - float64(children[i])*uncoveredNs - float64(childSum[i]))
			worst = math.Max(worst, gapNs/d)
			if !childSumFits(d, float64(childSum[i]), children[i], overheadNs, uncoveredNs) {
				r.problem("request %d: children of %s sum to %.1f us, span is %.1f us", s.Req, s.Name, float64(childSum[i])/1e3, d/1e3)
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		selfByLayer[layer] += d - float64(childSum[i])
	}
	if roots == 0 {
		return 0, fmt.Errorf("no request was traced")
	}
	// Self times are medians of per-request differences between sibling
	// spans of the same request: serve.http wraps what serve.allocate does,
	// and serve.allocate what bench.pipeline replays step by step.
	perReq := map[int32]map[string]float64{}
	for _, s := range t.spans {
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]float64{}
		}
		perReq[s.Req][s.Name] = float64(s.End-s.Start) / 1e3
	}
	var httpSelf, allocSelf []float64
	for _, m := range perReq {
		httpSelf = append(httpSelf, m["serve.http"]-m["serve.allocate"])
		allocSelf = append(allocSelf, m["serve.allocate"]-m["bench.pipeline"])
	}
	vals["serve.allocate_us"] = median(byName["serve.allocate"])
	vals["serve.http_self_us"] = median(httpSelf)
	vals["serve.allocate_self_us"] = median(allocSelf)

	layers := make([]string, 0, len(selfByLayer))
	for l := range selfByLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("self time per layer over %d traced requests (serve spans wrap whole in-process calls; bench.pipeline replays their steps):\n", roots)
	for _, l := range layers {
		fmt.Printf("  %-12s %9.2f us/request  %5.1f%%\n", l, selfByLayer[l]/float64(roots)/1e3, 100*selfByLayer[l]/rootTotal)
	}
	spansPerReq := float64(len(t.spans)) / float64(roots)
	fmt.Printf("tracing overhead: %.0f ns per span, %.1f spans per request, %.2f%% of traced time; largest child-sum gap %.2f%%\n",
		overheadNs, spansPerReq, 100*overheadNs*spansPerReq/(rootTotal/float64(roots)), 100*worst)
	return worst, nil
}
