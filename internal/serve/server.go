package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/rl"
)

// latencyWindow bounds the ring of recent allocate latencies kept for
// quantile reporting.
const latencyWindow = 4096

// Server is the online allocation service: a concurrent front-end over the
// per-cluster policy cache, the shared historical store and the online local
// model. One Server handles any number of concurrent Allocate and Feedback
// calls; the HTTP layer in http.go is a thin JSON adapter over it.
type Server struct {
	cfg      Config
	template *core.Problem
	store    *core.EnvironmentStore
	cache    *policyCache

	// localMu guards the local-model pointer; the model itself is immutable
	// after Fit, so requests snapshot the pointer and score lock-free.
	localMu sync.RWMutex
	local   *alloc.LocalModel

	// fbMu serializes the feedback window, refit bookkeeping and the
	// duplicate-seq ledger.
	fbMu     sync.Mutex
	window   []alloc.LocalSample
	sinceFit int
	// fbSeen/fbSeenQ dedupe client-supplied feedback sequence numbers: the
	// router replays feedback on failover, but refits are not idempotent, so
	// a bounded FIFO set of recent seqs absorbs the replays.
	fbSeen     map[int64]bool
	fbSeenQ    []int64
	fbSeenNext int

	started   time.Time
	draining  atomic.Bool
	allocates atomic.Int64
	feedbacks atomic.Int64
	refits    atomic.Int64
	storeAdds atomic.Int64
	degraded  atomic.Int64
	panics    atomic.Int64 // handler panics recovered by the HTTP middleware
	ckptSkips atomic.Int64 // corrupt checkpoint sections skipped on load
	fbDupes   atomic.Int64 // duplicate feedback requests absorbed by seq dedupe

	// repl is the replication sender (nil unless EnableReplication ran);
	// replStop makes Drain's sender shutdown idempotent.
	repl     *replicator
	replStop sync.Once

	// Cluster membership (nil while standalone) and warm-handoff counters;
	// see cluster.go. membership is the gossip plane's stats provider
	// (nil unless SetMembership ran; see membership.go).
	clusterMu     sync.Mutex
	clusterID     *ClusterIdentity
	membership    func() *MembershipStats
	handoffServes atomic.Int64
	handoffPulls  atomic.Int64

	latMu   sync.Mutex
	lat     []int64 // ns ring, most recent latencyWindow allocates
	latNext int
	latFull bool

	// wsPool recycles per-request allocate workspaces (allocWS) so the
	// warm path runs allocation-free.
	wsPool sync.Pool
}

// NewServer builds a service over a problem template (structure only — the
// importance the service estimates lives in the store) and a non-empty
// historical environment store. local may be nil: feature-carrying requests
// then fall back to the CRL path until feedback accumulates a window.
func NewServer(template *core.Problem, store *core.EnvironmentStore, local *alloc.LocalModel, cfg Config) (*Server, error) {
	if template == nil {
		return nil, fmt.Errorf("serve: nil template")
	}
	if err := template.Validate(); err != nil {
		return nil, fmt.Errorf("serve: template: %w", err)
	}
	if store == nil || store.Len() == 0 {
		return nil, core.ErrEmptyStore
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		template: template.Clone(),
		store:    store,
		local:    local,
		started:  cfg.Now(),
		lat:      make([]int64, latencyWindow),
	}
	s.cache = newPolicyCache(cfg, s.trainCluster)
	if cfg.SpeculateNeighbors > 0 {
		s.cache.onTrained = s.speculate
	}
	s.wsPool.New = func() any {
		return &allocWS{waiter: batchWaiter{sig: make(chan batchSignal, 1)}}
	}
	return s, nil
}

// Store returns the historical environment store the service clusters over.
func (s *Server) Store() *core.EnvironmentStore { return s.store }

// Template returns (a clone of) the problem structure being served.
func (s *Server) Template() *core.Problem { return s.template.Clone() }

// Drain flips the server into draining mode: subsequent requests fail fast
// with ErrDraining while in-flight ones finish. Pending coalescer
// micro-batches are flushed immediately so queued warm requests answer
// instead of waiting out their window. The HTTP layer calls this before
// shutting the listener down.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.cache.flushCoalescers()
	s.stopReplication()
}

// clusterStore builds the training sub-store for a cluster: the
// ClusterNeighborhood stored environments nearest the cluster
// representative's signature — Alg. 1's per-cluster history.
func (s *Server) clusterStore(cluster int) (*core.EnvironmentStore, error) {
	rep, err := s.store.At(cluster)
	if err != nil {
		return nil, err
	}
	neighbors, err := s.store.Nearest(rep.Signature, s.cfg.ClusterNeighborhood)
	if err != nil {
		return nil, err
	}
	sub := core.NewEnvironmentStore()
	for _, env := range neighbors {
		if err := sub.Add(env); err != nil {
			return nil, err
		}
	}
	return sub, nil
}

// defaultStopWindow is serve's convergence-based early-stop window when the
// operator leaves CRL.StopWindow at 0: compare the last 3 episode returns
// against the 3 before (so the plateau check can fire from episode 6 on).
const defaultStopWindow = 3

// trainCRLConfig resolves the effective per-cluster training configuration:
// core defaults, deterministic per-cluster seeds, and serve's default
// early-stopping window (StopWindow < 0 opts out).
func (s *Server) trainCRLConfig(cluster int) core.CRLConfig {
	cfg := s.cfg.CRL
	if cfg.K < 1 {
		cfg.K = core.DefaultCRLConfig().K
		cfg.Blend = true
	}
	if cfg.Episodes < 1 {
		cfg.Episodes = core.DefaultCRLConfig().Episodes
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.cfg.Seed + int64(cluster)*7919
	}
	if cfg.DQN.Seed == 0 {
		cfg.DQN.Seed = cfg.Seed + 1
	}
	switch {
	case cfg.StopWindow == 0:
		cfg.StopWindow = defaultStopWindow
	case cfg.StopWindow < 0:
		cfg.StopWindow = 0
	}
	return cfg
}

// trainCluster is the cache's trainFunc: train a CRL over the cluster's
// neighborhood sub-store. Seeding is deterministic per cluster; with warm
// starting enabled (the default) the trained weights additionally depend on
// which neighbour policies were resident, so identical deployments converge
// to equivalent — not bitwise-identical — caches.
func (s *Server) trainCluster(cluster int) (*core.CRL, []float64, error) {
	return s.trainClusterMode(cluster, nil)
}

// trainClusterMode is trainCluster with an optional between-episode
// interrupt hook — the speculative pre-trainer's yield check. The cold-start
// pipeline: seed from the nearest trained neighbour when one is resident
// (shrinking the episode budget to WarmEpisodeFrac), then train with
// convergence-based early stopping.
func (s *Server) trainClusterMode(cluster int, interrupt func() bool) (*core.CRL, []float64, error) {
	rep, err := s.store.At(cluster)
	if err != nil {
		return nil, nil, err
	}
	sub, err := s.clusterStore(cluster)
	if err != nil {
		return nil, nil, err
	}
	cfg := s.trainCRLConfig(cluster)
	cfg.Interrupt = interrupt
	var donor *core.CRL
	var prov core.WarmStart
	if !s.cfg.DisableWarmStart {
		if donor, prov = s.nearestTrainedDonor(cluster, rep.Signature); donor != nil {
			// A transferred policy only fine-tunes: cut the episode budget to
			// the warm fraction. Below the plateau detector's 2×window floor
			// the cut itself is the early exit (Train just runs the budget).
			warmEp := int(float64(cfg.Episodes) * s.cfg.WarmEpisodeFrac)
			if warmEp < 1 {
				warmEp = 1
			}
			if warmEp < cfg.Episodes {
				cfg.Episodes = warmEp
			}
		}
	}
	crl, err := core.NewCRL(s.template.Clone(), sub, cfg)
	if err != nil {
		return nil, nil, err
	}
	if donor != nil {
		if err := crl.WarmStartFrom(donor, prov); err != nil {
			// Shape mismatch cannot happen on a shared template; if it ever
			// does, training from scratch is the safe degradation.
			s.cfg.Logf("serve: warm start cluster %d from %d: %v (training from scratch)",
				cluster, prov.Source, err)
		} else {
			s.cache.warmStarts.Add(1)
		}
	}
	res, err := crl.Train()
	if err != nil {
		return nil, nil, err
	}
	if res.StopReason == rl.StopPlateau {
		s.cache.earlyStops.Add(1)
	}
	return crl, mathx.Clone(rep.Importance), nil
}

// nearestTrainedDonor scans the resident, healthy policies for the one whose
// cluster signature is nearest to sig — the warm-start neighbour selection
// rule. Returns nil when no other cluster has a usable policy. Reading a
// resident entry's model is safe concurrently: resolved policies are only
// ever read (rollouts run on clones), and WarmStartFrom only reads the
// donor.
func (s *Server) nearestTrainedDonor(cluster int, sig []float64) (*core.CRL, core.WarmStart) {
	var best *core.CRL
	bestKey, bestDist := -1, math.Inf(1)
	for _, sh := range s.cache.shards {
		sh.mu.Lock()
		for key, e := range sh.entries {
			if key == cluster || !e.resolved || e.err != nil || e.crl == nil {
				continue
			}
			env, err := s.store.At(key)
			if err != nil || len(env.Signature) != len(sig) {
				continue
			}
			if d := mathx.EuclideanDistance(sig, env.Signature); d < bestDist {
				best, bestKey, bestDist = e.crl, key, d
			}
		}
		sh.mu.Unlock()
	}
	if best == nil {
		return nil, core.WarmStart{}
	}
	return best, core.WarmStart{Source: bestKey, Distance: bestDist}
}

// AllocateRequest is one allocation query: the sensing signature Z, plus
// optional Table-I feature vectors enabling the DCTA local process.
type AllocateRequest struct {
	Signature []float64   `json:"signature"`
	Features  [][]float64 `json:"features,omitempty"`
	// Allocator selects the strategy: "auto" (default — DCTA when features
	// and a fitted local model are available, else CRL), "crl", or "dcta".
	Allocator string `json:"allocator,omitempty"`
}

// finiteVec rejects NaN/±Inf vector entries at the request trust boundary.
func finiteVec(name string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: %s[%d] = %v: %w", ErrBadRequest, name, i, x, ErrNonFinite)
		}
	}
	return nil
}

// finiteMat rejects NaN/±Inf matrix entries at the request trust boundary.
func finiteMat(name string, m [][]float64) error {
	for i, row := range m {
		for k, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("%w: %s[%d][%d] = %v: %w", ErrBadRequest, name, i, k, x, ErrNonFinite)
			}
		}
	}
	return nil
}

// Serving modes (AllocateResponse.Mode).
const (
	// ModeNormal answered from the policy-cache path.
	ModeNormal = "normal"
	// ModeDegraded answered from the greedy fallback because the policy
	// path was unavailable (see DegradedReason).
	ModeDegraded = "degraded"
)

// AllocateResponse is the service's answer.
type AllocateResponse struct {
	// Allocation maps task → processor index, -1 for dropped tasks.
	Allocation []int `json:"allocation"`
	// Cluster is the store index of the nearest historical environment —
	// the policy-cache key.
	Cluster int `json:"cluster"`
	// Cache is the cache outcome (hit, miss, coalesced, expired, drift,
	// warm; bypass for degraded answers).
	Cache string `json:"cache"`
	// Allocator is the strategy that produced the allocation (CRL, DCTA,
	// or greedy-fallback).
	Allocator string `json:"allocator"`
	// Mode is "normal" for policy-path answers, "degraded" for fallback
	// ones.
	Mode string `json:"mode"`
	// DegradedReason says why the fallback answered (degraded mode only).
	DegradedReason string `json:"degraded_reason,omitempty"`
	// PredictedImportance is the allocator's own captured-importance
	// estimate under the defined environment.
	PredictedImportance float64 `json:"predicted_importance"`
	// TrainNanos is the policy training time when this request led a
	// training (cache ∈ {miss, expired, drift}); 0 otherwise.
	TrainNanos int64 `json:"train_ns,omitempty"`
	// LatencyNanos is the server-side handling time.
	LatencyNanos int64 `json:"latency_ns"`
}

// allocWS is the per-request workspace for the warm allocate path: the
// request body and its decode target, the response, and every scratch
// buffer the pipeline needs, pooled so a steady-state warm request (cache
// hit, batch-1) performs zero allocations end to end. The embedded
// batchWaiter carries the request through the coalescer.
type allocWS struct {
	body []byte           // HTTP request body
	req  AllocateRequest  // HTTP decode target (slice capacity reused)
	resp AllocateResponse // Allocation backing array reused

	env      core.Environment // kNN-defined environment
	knn      core.KNNScratch
	pack     alloc.PackScratch
	combined []float64 // DCTA mixed scores
	featBuf  []float64 // local-model per-task feature scratch
	guard    core.Allocation
	waiter   batchWaiter
}

func (s *Server) getWS() *allocWS {
	ws := s.wsPool.Get().(*allocWS)
	// Drain a stale signal defensively: every rollout path consumes its
	// own, but a leaked signal would mis-answer an unrelated request.
	select {
	case <-ws.waiter.sig:
	default:
	}
	return ws
}

func (s *Server) putWS(ws *allocWS) { s.wsPool.Put(ws) }

// importanceOf sums the defined importance captured by an allocation.
func importanceOf(a core.Allocation, imp []float64) float64 {
	var v float64
	for j, proc := range a {
		if proc != core.Unassigned && j < len(imp) {
			v += imp[j]
		}
	}
	return v
}

// Allocate answers one allocation query. Safe for arbitrary concurrency:
// store reads are lock-protected, every DQN rollout runs on an exclusive
// pooled replica (concurrent rollouts for one cluster coalesce onto batched
// forward passes), and the local model is immutable-after-Fit.
//
// Availability contract: once the request is validated, Allocate answers.
// Any policy-path failure — a training that errors, panics, outlives the
// TrainBudget or the request deadline, an open circuit breaker, a saturated
// training gate, draining, a broken rollout, or a panicking micro-batch —
// routes to the degraded fallback allocator (fallback.go), which always
// produces a feasible allocation. Only malformed requests and a canceled
// caller context error.
func (s *Server) Allocate(ctx context.Context, req AllocateRequest) (*AllocateResponse, error) {
	ws := s.getWS()
	defer s.putWS(ws)
	if err := s.AllocateInto(ctx, req, ws); err != nil {
		return nil, err
	}
	resp := ws.resp
	resp.Allocation = append([]int(nil), ws.resp.Allocation...)
	return &resp, nil
}

// AllocateInto is Allocate writing into ws.resp — the zero-steady-state-
// allocation entry point the HTTP layer and benchmarks use. ws must come
// from getWS (or be zero-initialized with a buffered waiter signal) and must
// not be reused until the response has been consumed.
func (s *Server) AllocateInto(ctx context.Context, req AllocateRequest, ws *allocWS) error {
	start := s.cfg.Now()
	ws.resp = AllocateResponse{Allocation: ws.resp.Allocation[:0]}
	if len(req.Signature) == 0 {
		return fmt.Errorf("%w: empty signature", ErrBadRequest)
	}
	if err := finiteVec("signature", req.Signature); err != nil {
		return err
	}
	if err := finiteMat("features", req.Features); err != nil {
		return err
	}
	switch req.Allocator {
	case "", "auto", "crl", "dcta":
	default:
		return fmt.Errorf("%w: unknown allocator %q", ErrBadRequest, req.Allocator)
	}
	cluster, _, err := s.store.NearestIndex(req.Signature)
	if err != nil {
		// Dimension mismatch with the store's signatures (or an empty
		// store, impossible after NewServer) is a client error.
		return fmt.Errorf("%w: cluster lookup: %v", ErrBadRequest, err)
	}
	if req.Allocator == "dcta" {
		if len(req.Features) != len(s.template.Tasks) {
			return fmt.Errorf("%w: dcta needs %d feature vectors, got %d",
				ErrBadRequest, len(s.template.Tasks), len(req.Features))
		}
		if local := s.localModel(); local == nil || !local.Fitted() {
			return fmt.Errorf("%w: local model not fitted", ErrBadRequest)
		}
	}
	if s.draining.Load() {
		// Draining-but-not-yet-stopped: never start a training, but keep
		// answering until the listener closes.
		return s.fallbackAllocateInto(req, cluster, start, DegradedDraining, ws)
	}
	entry, outcome, err := s.cache.get(ctx, cluster)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return err // the caller is gone; no one reads the answer
		}
		return s.fallbackAllocateInto(req, cluster, start, degradedReason(err), ws)
	}
	if err := s.policyAllocateInto(ctx, req, cluster, entry, outcome, start, ws); err != nil {
		if errors.Is(err, ErrBadRequest) || errors.Is(err, context.Canceled) {
			return err
		}
		reason := DegradedPolicyError
		switch {
		case errors.Is(err, errBatchError):
			reason = DegradedBatch
		case errors.Is(err, context.DeadlineExceeded):
			reason = DegradedDeadline
		}
		s.cfg.Logf("serve: policy path cluster %d: %v (answering degraded)", cluster, err)
		return s.fallbackAllocateInto(req, cluster, start, reason, ws)
	}
	return nil
}

// policyAllocateInto is the warm path. The environment is defined once,
// replica-free, against the entry's cluster sub-store (environment
// definition only reads the concurrency-safe store). Requests that mix in
// the local process (DCTA) never touch a DQN at all — scores and packing
// run on pure request-local scratch. CRL requests roll the policy through
// the entry's coalescer: batch-1 uncontended, micro-batched under load,
// guarded by a greedy pack on the defined importance (CRLAllocator
// semantics: the better of rollout and guard ships).
func (s *Server) policyAllocateInto(ctx context.Context, req AllocateRequest, cluster int,
	entry *policyEntry, outcome string, start time.Time, ws *allocWS) error {
	if err := entry.crl.DefineEnvironmentInto(req.Signature, &ws.env, &ws.knn); err != nil {
		return fmt.Errorf("serve: define environment: %w", err)
	}

	local := s.localModel()
	useDCTA := false
	switch req.Allocator {
	case "", "auto":
		useDCTA = len(req.Features) == len(s.template.Tasks) && local != nil && local.Fitted()
	case "dcta":
		useDCTA = true // validated in AllocateInto
	case "crl":
	}

	w := &ws.waiter
	var name string
	if useDCTA {
		name = "DCTA"
		var err error
		ws.combined, ws.featBuf, err = alloc.CombineScoresInto(
			local, ws.env.Importance, req.Features, s.cfg.W1, s.cfg.W2, ws.combined, ws.featBuf)
		if err != nil {
			return fmt.Errorf("serve: dcta: %w", err)
		}
		w.out, _ = alloc.PackByScoreInto(s.template, ws.combined, s.cfg.CoverageTarget, w.out, &ws.pack)
	} else {
		name = "CRL"
		w.env = &ws.env
		if err := entry.co.rollout(ctx, w); err != nil {
			return fmt.Errorf("serve: crl rollout: %w", err)
		}
		// Greedy guard: whenever the rollout captures less of the defined
		// importance than a greedy pack would, the guard's plan ships.
		ws.guard, _ = alloc.PackByScoreInto(s.template, ws.env.Importance, 1.0, ws.guard, &ws.pack)
		if importanceOf(ws.guard, ws.env.Importance) > importanceOf(w.out, ws.env.Importance) {
			w.out, ws.guard = ws.guard, w.out
		}
	}

	latency := s.cfg.Now().Sub(start)
	s.allocates.Add(1)
	s.recordLatency(latency)
	resp := &ws.resp
	resp.Allocation = append(resp.Allocation[:0], w.out...)
	resp.Cluster = cluster
	resp.Cache = outcome
	resp.Allocator = name
	resp.Mode = ModeNormal
	resp.PredictedImportance = importanceOf(w.out, ws.env.Importance)
	resp.LatencyNanos = int64(latency)
	if outcome == CacheMiss || outcome == CacheExpired || outcome == CacheDrift {
		resp.TrainNanos = int64(entry.trainDur)
	}
	return nil
}

// problemWithImportance clones the template and installs an importance
// vector (clamped to [0,1]).
func (s *Server) problemWithImportance(imp []float64) *core.Problem {
	p := s.template.Clone()
	for i := range p.Tasks {
		v := 0.0
		if i < len(imp) {
			v = mathx.Clamp(imp[i], 0, 1)
		}
		p.Tasks[i].Importance = v
	}
	return p
}

func (s *Server) localModel() *alloc.LocalModel {
	s.localMu.RLock()
	defer s.localMu.RUnlock()
	return s.local
}

// FeedbackRequest streams one observed decision back into the service: the
// per-task features and the allocation that was actually executed become
// local-process training samples; an optional observed importance vector
// drives drift detection and, with AddToStore, grows the historical store.
type FeedbackRequest struct {
	Signature  []float64   `json:"signature"`
	Features   [][]float64 `json:"features"`
	Allocation []int       `json:"allocation"`
	Importance []float64   `json:"importance,omitempty"`
	AddToStore bool        `json:"add_to_store,omitempty"`
	// Seq is an optional client-supplied idempotency key (non-zero). The
	// cluster router replays feedback on a failed round trip, and refits are
	// not idempotent — a server that has already applied a seq answers the
	// replay with Duplicate=true and changes nothing. The ledger is bounded
	// (maxFeedbackSeqs) and per shard, so cross-shard replays (a retry that
	// lands on a different owner after ejection) remain at-least-once.
	Seq int64 `json:"seq,omitempty"`
}

// maxFeedbackSeqs bounds the duplicate-detection ledger; the window only
// needs to outlive the router's retry horizon (one failed round trip), not
// the deployment.
const maxFeedbackSeqs = 4096

// FeedbackResponse reports what the feedback changed.
type FeedbackResponse struct {
	Samples           int  `json:"samples"`
	WindowSize        int  `json:"window_size"`
	Refitted          bool `json:"refitted"`
	DriftInvalidated  bool `json:"drift_invalidated"`
	StoredEnvironment bool `json:"stored_environment"`
	// Duplicate is true when the request's Seq was already applied here; the
	// request changed nothing.
	Duplicate bool `json:"duplicate,omitempty"`
}

// Feedback ingests one observed decision.
func (s *Server) Feedback(ctx context.Context, req FeedbackRequest) (*FeedbackResponse, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if len(req.Features) == 0 || len(req.Allocation) == 0 {
		return nil, fmt.Errorf("%w: feedback needs features and an allocation", ErrBadRequest)
	}
	if len(req.Features) != len(req.Allocation) {
		return nil, fmt.Errorf("%w: %d feature vectors for %d allocation entries",
			ErrBadRequest, len(req.Features), len(req.Allocation))
	}
	if err := finiteVec("signature", req.Signature); err != nil {
		return nil, err
	}
	if err := finiteMat("features", req.Features); err != nil {
		return nil, err
	}
	if err := finiteVec("importance", req.Importance); err != nil {
		return nil, err
	}
	samples := alloc.SamplesFromDecision(req.Features, core.Allocation(req.Allocation))
	resp := &FeedbackResponse{Samples: len(samples)}

	s.fbMu.Lock()
	if req.Seq != 0 {
		if s.fbSeen[req.Seq] {
			window := len(s.window)
			s.fbMu.Unlock()
			s.fbDupes.Add(1)
			return &FeedbackResponse{WindowSize: window, Duplicate: true}, nil
		}
		if s.fbSeen == nil {
			s.fbSeen = make(map[int64]bool, maxFeedbackSeqs)
		}
		s.fbSeen[req.Seq] = true
		if len(s.fbSeenQ) < maxFeedbackSeqs {
			s.fbSeenQ = append(s.fbSeenQ, req.Seq)
		} else {
			// Ring replacement: forget the oldest seq in O(1).
			delete(s.fbSeen, s.fbSeenQ[s.fbSeenNext])
			s.fbSeenQ[s.fbSeenNext] = req.Seq
			s.fbSeenNext = (s.fbSeenNext + 1) % maxFeedbackSeqs
		}
	}
	s.window = append(s.window, samples...)
	if over := len(s.window) - s.cfg.MaxFeedback; over > 0 {
		s.window = append(s.window[:0:0], s.window[over:]...)
	}
	s.sinceFit += len(samples)
	refit := s.sinceFit >= s.cfg.RefitEvery
	var snapshot []alloc.LocalSample
	if refit {
		s.sinceFit = 0
		snapshot = append([]alloc.LocalSample(nil), s.window...)
	}
	resp.WindowSize = len(s.window)
	s.fbMu.Unlock()

	if refit {
		// Fit a *fresh* model outside all locks, then publish it: in-flight
		// requests keep scoring on the model they started with.
		fresh := alloc.NewLocalModel(s.cfg.Seed + s.refits.Load() + 808)
		if err := fresh.Fit(snapshot); err != nil {
			return nil, fmt.Errorf("serve: refit local model: %w", err)
		}
		s.localMu.Lock()
		s.local = fresh
		s.localMu.Unlock()
		s.refits.Add(1)
		resp.Refitted = true
	}

	if len(req.Signature) > 0 && len(req.Importance) > 0 {
		cluster, _, err := s.store.NearestIndex(req.Signature)
		if err != nil {
			return nil, fmt.Errorf("serve: feedback cluster lookup: %w", err)
		}
		resp.DriftInvalidated = s.cache.noteImportance(cluster, req.Importance)
		if req.AddToStore {
			caps := make([]float64, len(s.template.Processors))
			for i, pr := range s.template.Processors {
				caps[i] = pr.Capacity
			}
			imp := make([]float64, len(s.template.Tasks))
			for i := range imp {
				if i < len(req.Importance) {
					imp[i] = mathx.Clamp(req.Importance[i], 0, 1)
				}
			}
			env := &core.Environment{
				Importance: imp,
				Capacity:   caps,
				Signature:  mathx.Clone(req.Signature),
			}
			if err := s.store.Add(env); err != nil {
				return nil, fmt.Errorf("serve: feedback store add: %w", err)
			}
			s.storeAdds.Add(1)
			resp.StoredEnvironment = true
		}
	}
	s.feedbacks.Add(1)
	return resp, nil
}

func (s *Server) recordLatency(d time.Duration) {
	s.latMu.Lock()
	s.lat[s.latNext] = int64(d)
	s.latNext++
	if s.latNext == len(s.lat) {
		s.latNext = 0
		s.latFull = true
	}
	s.latMu.Unlock()
}

// LatencyStats summarizes the recent allocate-latency window.
type LatencyStats struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50_ns"`
	P95   int64 `json:"p95_ns"`
	P99   int64 `json:"p99_ns"`
	Max   int64 `json:"max_ns"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_s"`
	Allocates     int64   `json:"allocates"`
	// DegradedCount is the number of allocations answered by the fallback
	// path (subset of Allocates).
	DegradedCount int64 `json:"degraded"`
	Feedbacks     int64 `json:"feedbacks"`
	Refits        int64 `json:"refits"`
	StoreSize     int   `json:"store_size"`
	StoreAdds     int64 `json:"store_adds"`
	WindowSize    int   `json:"feedback_window"`
	// RecoveredPanics counts HTTP handler panics absorbed by the recovery
	// middleware.
	RecoveredPanics int64 `json:"recovered_panics"`
	// CheckpointSkips counts corrupt checkpoint sections skipped on restore.
	CheckpointSkips int64 `json:"checkpoint_skips"`
	// FeedbackDuplicates counts feedback requests absorbed by seq dedupe.
	FeedbackDuplicates int64        `json:"feedback_duplicates"`
	Cache              CacheStats   `json:"cache"`
	Latency            LatencyStats `json:"latency"`
	// Cluster is the shard's identity and handoff counters when the node is
	// part of a cluster deployment (absent standalone).
	Cluster *ClusterNodeStats `json:"cluster,omitempty"`
	// Replication is the push-queue ledger when the replication sender is
	// enabled (absent otherwise; receiver-side counters live in Cache).
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Membership is the gossip membership plane's view and protocol
	// counters when the node gossips (absent standalone).
	Membership *MembershipStats `json:"membership,omitempty"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.fbMu.Lock()
	window := len(s.window)
	s.fbMu.Unlock()
	return Stats{
		UptimeSeconds:      s.cfg.Now().Sub(s.started).Seconds(),
		Allocates:          s.allocates.Load(),
		DegradedCount:      s.degraded.Load(),
		Feedbacks:          s.feedbacks.Load(),
		Refits:             s.refits.Load(),
		StoreSize:          s.store.Len(),
		StoreAdds:          s.storeAdds.Load(),
		WindowSize:         window,
		RecoveredPanics:    s.panics.Load(),
		CheckpointSkips:    s.ckptSkips.Load(),
		FeedbackDuplicates: s.fbDupes.Load(),
		Cache:              s.cache.stats(),
		Latency:            s.latencyStats(),
		Cluster:            s.clusterNodeStats(),
		Replication:        s.replicationStats(),
		Membership:         s.membershipStats(),
	}
}

func (s *Server) latencyStats() LatencyStats {
	s.latMu.Lock()
	n := s.latNext
	if s.latFull {
		n = len(s.lat)
	}
	window := append([]int64(nil), s.lat[:n]...)
	s.latMu.Unlock()
	if len(window) == 0 {
		return LatencyStats{}
	}
	sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
	q := func(p float64) int64 {
		i := int(p * float64(len(window)-1))
		return window[i]
	}
	return LatencyStats{
		Count: int64(len(window)),
		P50:   q(0.50),
		P95:   q(0.95),
		P99:   q(0.99),
		Max:   window[len(window)-1],
	}
}
