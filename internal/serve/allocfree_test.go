//go:build !race

// The race detector instruments allocations, making testing.AllocsPerRun
// report nonzero even for allocation-free code — so this file is excluded
// from -race runs and CI invokes it in a separate non-race pass.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
)

// zeroAllocServer warms cluster 0 and returns the server plus a manually-held
// workspace, ready for steady-state measurement.
func zeroAllocServer(t *testing.T, cfg Config) (*Server, *allocWS) {
	t.Helper()
	s := newTestServer(t, cfg)
	if _, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	return s, s.getWS()
}

// TestWarmAllocateZeroAllocsCRL pins the tentpole's memory contract: a warm
// CRL allocate (cache hit, batch-1 fast path) performs ZERO steady-state heap
// allocations — the pooled workspace, the replica's rollout scratch, the kNN
// scratch and the response backing arrays are all reused. Any regression here
// (a fresh slice, a fmt.Sprintf, an interface box on the hot path) fails CI.
func TestWarmAllocateZeroAllocsCRL(t *testing.T) {
	s, ws := zeroAllocServer(t, fastConfig())
	ctx := context.Background()
	req := AllocateRequest{Signature: []float64{0}}
	// Warm the per-workspace and per-replica scratch: the first calls grow
	// buffers and clone the pooled replica.
	for i := 0; i < 8; i++ {
		if err := s.AllocateInto(ctx, req, ws); err != nil {
			t.Fatal(err)
		}
		if ws.resp.Mode != ModeNormal || ws.resp.Cache != CacheHit {
			t.Fatalf("warmup %d: %+v", i, ws.resp)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := s.AllocateInto(ctx, req, ws); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm CRL allocate: %.2f allocs/op, want 0", avg)
	}
	if ws.resp.Mode != ModeNormal || ws.resp.Allocator != "CRL" {
		t.Fatalf("measured path was not the warm CRL path: %+v", ws.resp)
	}
}

// TestWarmAllocateZeroAllocsDCTA extends the zero-alloc contract to the DCTA
// warm path: combined scoring (local SVM + general importance) and the greedy
// pack also run entirely on pooled scratch.
func TestWarmAllocateZeroAllocsDCTA(t *testing.T) {
	cfg := fastConfig()
	cfg.RefitEvery = 12
	s, ws := zeroAllocServer(t, cfg)
	ctx := context.Background()

	// Fit the local model through the feedback path (as production would).
	imp := clusterImportance(0)
	executed := []int{0, 0, 1, core.Unassigned, core.Unassigned, 1}
	for i := 0; i < 2; i++ {
		fb, err := s.Feedback(ctx, FeedbackRequest{
			Signature:  []float64{0},
			Features:   mkFeatures(imp, 0.05, int64(60+i)),
			Allocation: executed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !fb.Refitted {
			t.Fatalf("local model not refitted: %+v", fb)
		}
	}

	req := AllocateRequest{Signature: []float64{0}, Features: mkFeatures(imp, 0.05, 61)}
	for i := 0; i < 8; i++ {
		if err := s.AllocateInto(ctx, req, ws); err != nil {
			t.Fatal(err)
		}
		if ws.resp.Allocator != "DCTA" || ws.resp.Mode != ModeNormal {
			t.Fatalf("warmup %d: %+v", i, ws.resp)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := s.AllocateInto(ctx, req, ws); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm DCTA allocate: %.2f allocs/op, want 0", avg)
	}
}

// TestWarmAllocateZeroAllocsDecode extends the contract to the request
// decode: a dcta-rw body (5-float signature, 24×12 feature matrix) and a
// crl-read body (signature and allocator name) decode into a warmed pooled
// workspace, and the router's signature peek reads them, without allocating.
func TestWarmAllocateZeroAllocsDecode(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ws := s.getWS()
	defer s.putWS(ws)
	dcta := realAllocateBody(t)
	if err := decodeAllocate(dcta, &ws.req); err != nil {
		t.Fatal(err)
	}
	if len(ws.req.Signature) != 5 || len(ws.req.Features) != 24 || len(ws.req.Features[23]) != features.Dim {
		t.Fatalf("decoded %d-float signature, %d feature rows", len(ws.req.Signature), len(ws.req.Features))
	}
	crl := []byte(`{"signature":[-0.086,0.65,-0.169,0.249,-0.183],"allocator":"crl"}`)
	var sig []float64
	for _, body := range [][]byte{dcta, crl} {
		avg := testing.AllocsPerRun(200, func() {
			if err := decodeAllocate(body, &ws.req); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("allocate decode of %.30q...: %.2f allocs/op, want 0", body, avg)
		}
		sig, _ = PeekSignature(body, sig)
		avg = testing.AllocsPerRun(200, func() {
			var ok bool
			if sig, ok = PeekSignature(body, sig); !ok {
				t.Fatal("peek found no signature")
			}
		})
		if avg != 0 {
			t.Fatalf("signature peek of %.30q...: %.2f allocs/op, want 0", body, avg)
		}
	}
	if ws.req.Allocator != "crl" || len(ws.req.Features) != 0 {
		t.Fatalf("crl body decoded as %+v", ws.req)
	}
}

// BenchmarkDecodeAllocate compares the decoders on a dcta-rw body: the
// json.Decoder the allocate handler used before the wire scanner, the
// scanner itself, and the router's signature peek.
func BenchmarkDecodeAllocate(b *testing.B) {
	body := realAllocateBody(b)
	var req AllocateRequest
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req.Signature, req.Features, req.Allocator = req.Signature[:0], req.Features[:0], ""
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decodeAllocate(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("peek", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var sig []float64
		for i := 0; i < b.N; i++ {
			sig, _ = PeekSignature(body, sig)
		}
	})
}
