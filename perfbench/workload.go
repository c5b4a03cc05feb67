package main

import (
	"math/rand"

	"repro/internal/serve"
)

// shape is one named workload.
type shape struct {
	name string
	why  string
	// crl sends signature-only allocator:"crl" reads; otherwise reads carry
	// the 24×12 feature matrix and are served on the DCTA path.
	crl bool
	// writeEvery makes one request in writeEvery a /v1/feedback write
	// (0: read-only). Writes go on their own connection, in order.
	writeEvery int
	// derivedWorlds makes the fresh set-ups after each segment (see
	// run.sweep) use worlds derived from the workload seed, so first
	// touches sample many worlds.
	derivedWorlds bool
	// lo and hi are the two fixed offered rates, requests per second.
	lo, hi float64
}

// shapes are the benchmark's workloads. The rates are frozen here, measured
// at the commit that introduced the benchmark on a 2-vCPU x86-64 virtual
// machine: lo is about a quarter of the workload's max_rate_rps and hi about
// two thirds of the max_rate_rps it reaches while the host is busy (when
// neighbours load the host, capacity drops by a third; a hi above that
// would measure overload in those periods).
var shapes = []shape{
	{
		name: "dcta-rw", writeEvery: 100, lo: 800, hi: 2000,
		why: "feature-carrying DCTA reads, decode-bound, plus 1% feedback writes whose refits compete for the cores",
	},
	{
		name: "crl-read", crl: true, derivedWorlds: true, lo: 800, hi: 2000,
		why: "signature-only CRL reads (DQN rollout, coalescer; no decode or refit cost) and first touches of every key on fresh servers over derived worlds, where training dominates",
	},
}

func shapeByName(name string) (shape, bool) {
	for _, s := range shapes {
		if s.name == name {
			return s, true
		}
	}
	return shape{}, false
}

// Stream ids keep every phase's request sequence independent of the
// others and of the phase durations that came before it.
const (
	streamLo    = 1
	streamHi    = 2
	streamProbe = 100 // + probe number
	streamTrace = 50
	streamWrite = 60
)

// schedule draws n requests for one phase from the workload seed: keys
// uniform over every cluster key, a uniform variant within the key, and
// with writeEvery a feedback write in place of a read one time in
// writeEvery. Reads alternate over both connections unless the workload
// writes, in which case reads use connection 0 and writes connection 1.
func (sh shape) schedule(seed, stream int64, n int, byKey [][]int) []item {
	rng := rand.New(rand.NewSource(seed*1_000_003 + stream))
	out := make([]item, n)
	for i := range out {
		write := sh.writeEvery > 0 && rng.Intn(sh.writeEvery) == 0
		key := rng.Intn(len(byKey))
		pool := byKey[key][rng.Intn(len(byKey[key]))]
		it := item{write: write, pool: int32(pool)}
		switch {
		case sh.writeEvery > 0 && write:
			it.conn = 1
		case sh.writeEvery > 0:
			it.conn = 0
		default:
			it.conn = uint8(i % 2)
		}
		out[i] = it
	}
	return out
}

// frames renders the read and write frame of every pool entry. Writes carry
// the allocation the reference served for the entry before any feedback.
func (sh shape) frames(w *world, served [][]int) (reads, writes [][]byte) {
	reads = make([][]byte, len(w.pool))
	writes = make([][]byte, len(w.pool))
	for i, e := range w.pool {
		reads[i] = frame("/v1/allocate", mustJSON(e.allocateRequest(sh.crl)))
		if served != nil {
			writes[i] = frame("/v1/feedback", mustJSON(feedbackFor(e, served[i])))
		}
	}
	return reads, writes
}

func feedbackFor(e entry, served []int) serve.FeedbackRequest {
	return serve.FeedbackRequest{Signature: e.sig, Features: e.feats, Allocation: served}
}
