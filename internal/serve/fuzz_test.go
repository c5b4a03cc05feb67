package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/core"
)

// fuzzServer builds a silent two-cluster server; testing.TB so both the
// seed-corpus phase (*testing.F) and the fuzz body (*testing.T) can use it.
func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	store := core.NewEnvironmentStore()
	for cluster := 0; cluster < 2; cluster++ {
		if err := store.Add(&core.Environment{
			Importance: clusterImportance(cluster),
			Capacity:   []float64{2, 2},
			Signature:  []float64{float64(cluster)},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	cfg := fastConfig()
	cfg.Logf = func(string, ...any) {} // corrupt inputs are expected here
	s, err := NewServer(testTemplate(), store, nil, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// FuzzLoadCheckpoint throws arbitrary bytes at the checkpoint restore path.
// The loader reads files that survived crashes and torn writes, so it must
// never panic and must contain damage per section: any input either loads
// some entries, skips them, or fails cleanly.
func FuzzLoadCheckpoint(f *testing.F) {
	// Seed corpus: a real warm checkpoint, a bit-flipped one, a truncated
	// one, a legacy v1 file, and assorted structural garbage.
	seedSrv := fuzzServer(f)
	if _, err := seedSrv.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}}); err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := seedSrv.SaveCheckpoint(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), good.Bytes()...))
	// A shard-scoped export — the exact stream a joining cluster peer pulls
	// and feeds through InstallFromCheckpoint (same loader underneath).
	var scoped bytes.Buffer
	if err := seedSrv.SaveCheckpointFor(&scoped, func(k int) bool { return k == 0 }); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), scoped.Bytes()...))
	flipped := append([]byte(nil), good.Bytes()...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Add(append([]byte(nil), good.Bytes()[:len(good.Bytes())*2/3]...))
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte(`{"version":7}`))
	f.Add([]byte("DCTACKP\x02"))
	f.Add([]byte("DCTACKP\x02\xFF\xFF\xFF\xFF\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzServer(t)
		restored, err := s.LoadCheckpoint(bytes.NewReader(data))
		if restored < 0 {
			t.Fatalf("restored %d entries", restored)
		}
		if err != nil && restored == 0 && s.Stats().CheckpointSkips == 0 {
			// Clean failure: nothing half-installed, nothing skipped —
			// fine. The point is we got here without panicking.
			return
		}
		// A load that installed entries must leave the cache serviceable:
		// saving again must produce a well-formed checkpoint.
		var out bytes.Buffer
		if err := s.SaveCheckpoint(&out); err != nil {
			t.Fatalf("cache unserviceable after load: %v", err)
		}
	})
}

// FuzzDecodeReplicate throws arbitrary bytes at the replication receiver —
// the exact stream POST /v1/replicate and the anti-entropy pull install. It
// must never panic, never accept the legacy v1 format, and keep its result
// counters coherent on any input.
func FuzzDecodeReplicate(f *testing.F) {
	seedSrv := fuzzServer(f)
	if _, err := seedSrv.Allocate(context.Background(), AllocateRequest{Signature: []float64{0}}); err != nil {
		f.Fatal(err)
	}
	// A real replication snapshot (single-cluster page), a full page, a
	// bit-flipped one, a truncated one, a v1 payload (must be refused), and
	// structural garbage.
	var page bytes.Buffer
	if _, err := seedSrv.SaveCheckpointPage(&page, func(k int) bool { return k == 0 }, -1, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), page.Bytes()...))
	var full bytes.Buffer
	if _, err := seedSrv.SaveCheckpointPage(&full, nil, -1, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), full.Bytes()...))
	flipped := append([]byte(nil), page.Bytes()...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Add(append([]byte(nil), page.Bytes()...)[:page.Len()*2/3])
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte("DCTACKP\x01"))
	f.Add([]byte("DCTACKP\x02"))
	f.Add([]byte("DCTACKP\x02\xFF\xFF\xFF\xFF\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzServer(t)
		res, err := s.InstallReplicated(bytes.NewReader(data), func(int) bool { return false })
		if res.Installed < 0 || res.Stale < 0 || res.Installed+res.Stale > res.Sections {
			t.Fatalf("incoherent install result %+v", res)
		}
		if !bytes.HasPrefix(data, []byte(checkpointMagic)) && res.Sections != 0 {
			t.Fatalf("non-v2 input decoded %d sections (err=%v)", res.Sections, err)
		}
		// Whatever was installed, the cache must stay serviceable.
		var out bytes.Buffer
		if err := s.SaveCheckpoint(&out); err != nil {
			t.Fatalf("cache unserviceable after install: %v", err)
		}
	})
}

// wireSeeds are request bodies on the edges of encoding/json's behaviour,
// shared by the wire-decoder fuzz targets.
var wireSeeds = []string{
	// One value per body: trailing data, whitespace, empty bodies.
	`{"signature":[1]}`, "{\"signature\":[1]}\n", " \t{\"signature\" : [ 1 , 2 ] }\r\n",
	`{"signature":[1]} garbage`, `{"signature":[1]}{}`, `{}`, ``, `   `,
	`null`, ` null `, `nullx`, `[1]`, `1`, `"x"`, `true`,
	// Keys: case folding, the long s and dotless i, duplicates, escapes.
	`{"SIGNATURE":[1]}`, `{"Signature":[1],"signature":[2]}`, `{"ſignature":[3]}`,
	`{"sıgnature":[1]}`, `{"ADD_TO_STORE":true,"ſeq":7}`, `{"sig\u006eature":[1]}`,
	`{"signature":[1,2,3],"signature":[null]}`,
	`{"signature":[1,2],"signature":[],"signature":[null]}`,
	`{"features":[[1,2],[3]],"features":[[null,null,null],null]}`,
	// null: nil slices, untouched scalars and elements.
	`{"signature":null}`, `{"signature":[]}`, `{"signature":[null,1]}`, `{"features":[null,[]]}`,
	`{"allocator":"crl","allocator":null}`, `{"seq":5,"seq":null}`, `{"add_to_store":true,"add_to_store":null}`,
	`{"allocation":[1,null,2],"allocation":[null]}`,
	// Numbers: range, negative zero, integer fields, non-JSON syntax.
	`{"signature":[1e400]}`, `{"signature":[-1e400]}`, `{"signature":[-0,1E-400,1e+2,-0.0]}`,
	`{"signature":[+1]}`, `{"signature":[.5]}`, `{"signature":[Inf]}`, `{"signature":[NaN]}`,
	`{"signature":[0x1p3]}`, `{"signature":[1_0]}`, `{"signature":[01]}`, `{"signature":[1.]}`,
	`{"signature":[1e]}`, `{"signature":[-]}`, `{"signature":[1,]}`,
	`{"allocation":[1.0]}`, `{"allocation":[1e2]}`, `{"allocation":[-0]}`,
	`{"seq":9223372036854775807}`, `{"seq":9223372036854775808}`,
	// Strings: escapes, invalid UTF-8, control characters.
	`{"allocator":"d\u0063ta"}`, `{"allocator":"\ud800"}`, "{\"allocator\":\"\xff\"}",
	"{\"allocator\":\"dcta\n\"}", `{"allocator":"\x"}`, `{"allocator":"\u12"}`,
	// Unknown fields, wrong types, broken structure.
	`{"signature":[1],"bogus":1}`, `{"signature":[[1]]}`, `{"signature":"1"}`, `{"features":[1]}`,
	`{"allocator":1}`, `{"add_to_store":1}`, `{"seq":"1"}`, `{"signature":[1]`, `{"signature" [1]}`,
	`{,}`, `{"a"}`, `{"signature":[1],}`,
}

// oracleDecode is the reference the wire scanner must match: json.Decoder
// with DisallowUnknownFields, and only whitespace after the value.
func oracleDecode(body []byte, v any) error {
	r := bytes.NewReader(body)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest, _ := io.ReadAll(io.MultiReader(dec.Buffered(), r))
	if len(bytes.TrimLeft(rest, " \t\r\n")) != 0 {
		return errors.New("data after the top-level value")
	}
	return nil
}

// sameSlice compares element by element with eq and, with nilness, nil
// against empty. Floats compare by bits, so -0 differs from 0.
func sameSlice[T any](a, b []T, nilness bool, eq func(T, T) bool) bool {
	if len(a) != len(b) || nilness && (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64, nilness bool) bool { return sameSlice(a, b, nilness, sameBits) }

func sameRows(a, b [][]float64, nilness bool) bool {
	return sameSlice(a, b, nilness, func(x, y []float64) bool { return sameFloats(x, y, nilness) })
}

func sameInts(a, b []int, nilness bool) bool {
	return sameSlice(a, b, nilness, func(x, y int) bool { return x == y })
}

func sameAllocate(a, b AllocateRequest, nilness bool) bool {
	return sameFloats(a.Signature, b.Signature, nilness) && sameRows(a.Features, b.Features, nilness) &&
		a.Allocator == b.Allocator
}

func sameFeedback(a, b FeedbackRequest, nilness bool) bool {
	return sameFloats(a.Signature, b.Signature, nilness) && sameRows(a.Features, b.Features, nilness) &&
		sameInts(a.Allocation, b.Allocation, nilness) && sameFloats(a.Importance, b.Importance, nilness) &&
		a.AddToStore == b.AddToStore && a.Seq == b.Seq
}

// realAllocateBody is a dcta-rw allocate request: a 5-float signature and
// the 24×12 Table-I feature matrix of one decision context.
func realAllocateBody(tb testing.TB) []byte {
	tb.Helper()
	body, err := os.ReadFile("testdata/allocate_dcta.json")
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// realFeedbackBody is realAllocateBody's request reported back as feedback,
// for the first rows tasks.
func realFeedbackBody(tb testing.TB, rows int) []byte {
	tb.Helper()
	var req AllocateRequest
	if err := json.Unmarshal(realAllocateBody(tb), &req); err != nil {
		tb.Fatal(err)
	}
	req.Features = req.Features[:rows]
	fb := FeedbackRequest{Signature: req.Signature, Features: req.Features, AddToStore: true, Seq: 42}
	for j := range req.Features {
		fb.Allocation = append(fb.Allocation, j%5-1)
		fb.Importance = append(fb.Importance, 1/float64(j+1))
	}
	body, err := json.Marshal(fb)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// trimRows keeps the signature and the first rows feature rows of an
// allocate body: a real-valued seed small enough for the fuzzer to mutate
// and minimize quickly.
func trimRows(tb testing.TB, body []byte, rows int) []byte {
	tb.Helper()
	var req AllocateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		tb.Fatal(err)
	}
	req.Features = req.Features[:rows]
	out, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzDecodeAllocate holds the allocate wire decoder to encoding/json: both
// accept or both reject, and an accepted body decodes to the same values
// bit for bit, nil against empty included — also when the decode reuses a
// workspace that held an earlier, full-size request.
func FuzzDecodeAllocate(f *testing.F) {
	realBody := realAllocateBody(f)
	seed := trimRows(f, realBody, 2)
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), '\n'))
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got AllocateRequest
		wantErr := oracleDecode(body, &want)
		gotErr := decodeAllocate(body, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: encoding/json err=%v, wire err=%v", body, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !sameAllocate(got, want, true) {
			t.Fatalf("%q: wire %+v, encoding/json %+v", body, got, want)
		}
		var reused AllocateRequest
		if err := decodeAllocate(realBody, &reused); err != nil {
			t.Fatal(err)
		}
		if err := decodeAllocate(body, &reused); err != nil || !sameAllocate(reused, want, false) {
			t.Fatalf("%q on a reused workspace: err=%v, wire %+v, encoding/json %+v", body, err, reused, want)
		}
	})
}

// FuzzDecodeFeedback is FuzzDecodeAllocate for the feedback decoder.
func FuzzDecodeFeedback(f *testing.F) {
	realBody := realFeedbackBody(f, 24)
	seed := realFeedbackBody(f, 2)
	f.Add(seed)
	f.Add(append(append([]byte(nil), seed...), []byte(" x")...))
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got FeedbackRequest
		wantErr := oracleDecode(body, &want)
		gotErr := decodeFeedback(body, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: encoding/json err=%v, wire err=%v", body, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !sameFeedback(got, want, true) {
			t.Fatalf("%q: wire %+v, encoding/json %+v", body, got, want)
		}
		var reused FeedbackRequest
		if err := decodeFeedback(realBody, &reused); err != nil {
			t.Fatal(err)
		}
		if err := decodeFeedback(body, &reused); err != nil || !sameFeedback(reused, want, false) {
			t.Fatalf("%q on a reused workspace: err=%v, wire %+v, encoding/json %+v", body, err, reused, want)
		}
	})
}
