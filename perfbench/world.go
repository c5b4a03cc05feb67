package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"time"

	dcta "repro"
	"repro/internal/core"
	"repro/internal/serve"
)

// World building and the in-process reference. The benchmark builds the
// same experimental world dcta-server builds from its seed, keeps an
// in-process serve.Server over it as the answer reference, and derives the
// request pool from the workload seed.

const (
	// variantsPerKey is the number of distinct noisy signatures drawn per
	// cluster key.
	variantsPerKey = 12
	// sensingNoise is the relative Gaussian noise put on a stored signature
	// to make a fresh request signature near it.
	sensingNoise = 0.05
)

// scenarioConfig is dcta-server's -scale fast preset.
func scenarioConfig(seed int64) dcta.ScenarioConfig {
	cfg := dcta.DefaultScenarioConfig(seed)
	cfg.Years = 1
	cfg.Tasks = 24
	cfg.HistoryContexts = 20
	cfg.EvalContexts = 4
	cfg.Workers = 5
	cfg.CRLEpisodes = 10
	return cfg
}

// serveConfig is dcta-server's flag defaults at -scale fast.
func serveConfig(seed int64) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.ClusterNeighborhood = 5
	cfg.CacheCapacity = 64
	cfg.PolicyTTL = 0
	cfg.DriftThreshold = 0.35
	cfg.Replicas = 8
	cfg.RefitEvery = 256
	cfg.Seed = seed
	cfg.CRL.Episodes = scenarioConfig(seed).CRLEpisodes
	cfg.BreakerThreshold = 3
	cfg.BreakerBackoff = time.Second
	cfg.Logf = log.New(io.Discard, "", 0).Printf
	return cfg
}

// entry is one distinct request: a sensing signature near a stored
// environment, that epoch's Table-I features and its true importance.
type entry struct {
	key   int
	sig   []float64
	feats [][]float64
	imp   []float64
	total float64
}

// world is a built scenario plus its reference server and request pool.
type world struct {
	seed     int64
	scn      *dcta.Scenario
	buildDur time.Duration
	ref      *serve.Server
	keys     int
	pool     []entry
	byKey    [][]int // pool indices per cluster key
	// warm[k] is the first-touch request for key k: the stored signature
	// itself, with key k's features.
	warm []entry
}

func buildWorld(seed int64) (*world, error) {
	start := time.Now()
	scn, err := dcta.NewScenario(scenarioConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("world %d: %w", seed, err)
	}
	w := &world{seed: seed, scn: scn, buildDur: time.Since(start), keys: scn.Store.Len()}
	for k := 0; k < w.keys; k++ {
		env, err := scn.Store.At(k)
		if err != nil {
			return nil, err
		}
		feats, err := scn.Extractor.Vectors(scn.History[k].FeatureCtx)
		if err != nil {
			return nil, fmt.Errorf("world %d: features: %w", seed, err)
		}
		w.warm = append(w.warm, newEntry(k, env.Signature, feats, scn.History[k].Importance))
	}
	w.ref, err = w.newReference()
	if err != nil {
		return nil, err
	}
	return w, nil
}

// newReference is a fresh in-process server over the world, configured as
// dcta-server is by default.
func (w *world) newReference() (*serve.Server, error) {
	ref, err := serve.NewServer(w.scn.Template, w.scn.Store, w.scn.Local, serveConfig(w.seed))
	if err != nil {
		return nil, fmt.Errorf("world %d: reference: %w", w.seed, err)
	}
	return ref, nil
}

func newEntry(key int, sig []float64, feats [][]float64, imp []float64) entry {
	e := entry{key: key, sig: sig, feats: feats, imp: imp}
	for _, v := range imp {
		e.total += v
	}
	return e
}

// buildPool draws the request pool from the workload seed: variantsPerKey
// fresh noisy signatures near every stored environment (redrawn until the
// signature still maps to that environment's key, so traffic is uniform
// over keys), plus the held-out evaluation epochs under the key they map to.
func (w *world) buildPool(workloadSeed int64) error {
	rng := rand.New(rand.NewSource(workloadSeed*7907 + 17))
	w.pool = w.pool[:0]
	w.byKey = make([][]int, w.keys)
	add := func(e entry) {
		w.byKey[e.key] = append(w.byKey[e.key], len(w.pool))
		w.pool = append(w.pool, e)
	}
	for k, base := range w.warm {
		for v := 0; v < variantsPerKey; v++ {
			sig := base.sig
			for try := 0; try < 64; try++ {
				cand := make([]float64, len(base.sig))
				for i, x := range base.sig {
					cand[i] = x + rng.NormFloat64()*sensingNoise*(0.5+math.Abs(x))
				}
				if got, _, err := w.scn.Store.NearestIndex(cand); err == nil && got == k {
					sig = cand
					break
				}
			}
			add(newEntry(k, sig, base.feats, base.imp))
		}
	}
	for _, ep := range w.scn.Eval {
		k, _, err := w.scn.Store.NearestIndex(ep.Signature)
		if err != nil {
			return err
		}
		feats, err := w.scn.Extractor.Vectors(ep.FeatureCtx)
		if err != nil {
			return err
		}
		add(newEntry(k, ep.Signature, feats, ep.Importance))
	}
	return nil
}

// allocateRequest is the wire request for e under a workload shape.
func (e entry) allocateRequest(crl bool) serve.AllocateRequest {
	if crl {
		return serve.AllocateRequest{Signature: e.sig, Allocator: "crl"}
	}
	return serve.AllocateRequest{Signature: e.sig, Features: e.feats}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain float/int/string structs are encoded
	}
	return b
}

// refAllocate answers req on a reference server.
func refAllocate(ref *serve.Server, req serve.AllocateRequest) ([]int, error) {
	resp, err := ref.Allocate(context.Background(), req)
	if err != nil {
		return nil, err
	}
	if resp.Mode != serve.ModeNormal {
		return nil, fmt.Errorf("reference answered %s (%s)", resp.Mode, resp.DegradedReason)
	}
	return resp.Allocation, nil
}

// warmReference sends every key's first touch to ref in key order, exactly
// as the benchmark warms a fresh server, and returns the answers.
func (w *world) warmReference(ref *serve.Server, crl bool) ([][]int, error) {
	out := make([][]int, w.keys)
	for k, e := range w.warm {
		a, err := refAllocate(ref, e.allocateRequest(crl))
		if err != nil {
			return nil, fmt.Errorf("reference warm key %d: %w", k, err)
		}
		out[k] = a
	}
	return out, nil
}

// checkFeasible verifies an allocation against Eqs. 2-4 on the template.
func (w *world) checkFeasible(a []int) error {
	return w.scn.Template.CheckFeasible(core.Allocation(a))
}

// captured is the share of e's true importance that allocation a captures.
func (e entry) captured(a []int) float64 {
	if e.total <= 0 {
		return 0
	}
	var v float64
	for j, p := range a {
		if p != core.Unassigned && j < len(e.imp) {
			v += e.imp[j]
		}
	}
	return v / e.total
}

func equalAlloc(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
