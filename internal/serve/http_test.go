package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, buf.String())
		}
	}
	return resp.StatusCode, buf.String()
}

// TestHTTPEndToEnd drives all four endpoints through the real handler stack.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ts := httptest.NewServer(NewHandler(s, HTTPOptions{}))
	defer ts.Close()

	// healthz while live.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Allocate: cold then warm.
	var ar AllocateResponse
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/allocate",
		AllocateRequest{Signature: []float64{0}}, &ar)
	if code != http.StatusOK {
		t.Fatalf("allocate = %d: %s", code, body)
	}
	if ar.Cache != CacheMiss || len(ar.Allocation) != 6 {
		t.Fatalf("cold allocate = %+v", ar)
	}
	code, _ = postJSON(t, ts.Client(), ts.URL+"/v1/allocate",
		AllocateRequest{Signature: []float64{0}}, &ar)
	if code != http.StatusOK || ar.Cache != CacheHit {
		t.Fatalf("warm allocate = %d %+v", code, ar)
	}

	// Feedback.
	var fr FeedbackResponse
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/feedback", FeedbackRequest{
		Signature:  []float64{0},
		Features:   mkFeatures(clusterImportance(0), 0.05, 9),
		Allocation: ar.Allocation,
	}, &fr)
	if code != http.StatusOK {
		t.Fatalf("feedback = %d: %s", code, body)
	}
	if fr.Samples != 6 {
		t.Fatalf("feedback = %+v", fr)
	}

	// Stats reflects the traffic.
	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Allocates != 2 || stats.Feedbacks != 1 || stats.Cache.Trainings != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Latency.Count != 2 || stats.Latency.P99 < stats.Latency.P50 {
		t.Fatalf("latency stats = %+v", stats.Latency)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ts := httptest.NewServer(NewHandler(s, HTTPOptions{}))
	defer ts.Close()

	// Bad request body.
	resp, err := ts.Client().Post(ts.URL+"/v1/allocate", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}

	// Unknown fields rejected.
	code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/allocate",
		map[string]any{"signature": []float64{0}, "bogus": 1}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", code)
	}

	// One JSON value per body: trailing data is a 400 on both decoding
	// endpoints, while the newline json.Encoder appends is fine.
	fb, err := json.Marshal(FeedbackRequest{
		Signature:  []float64{0},
		Features:   mkFeatures(clusterImportance(0), 0.05, 9),
		Allocation: []int{0, 0, 1, -1, -1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body string
		want       int
		chunked    bool // no Content-Length: the limit applies while reading
	}{
		{"/v1/allocate", `{"signature":[1]} garbage`, http.StatusBadRequest, false},
		{"/v1/allocate", `{"signature":[1]}{}`, http.StatusBadRequest, false},
		{"/v1/allocate", "{\"signature\":[1]}\n", http.StatusOK, false},
		{"/v1/feedback", string(fb) + ` garbage`, http.StatusBadRequest, false},
		{"/v1/feedback", string(fb) + "\n", http.StatusOK, false},
		// Bodies over the size limit are refused before decoding.
		{"/v1/allocate", `{"signature":[1]}` + strings.Repeat(" ", maxBodyBytes), http.StatusBadRequest, false},
		{"/v1/allocate", `{"signature":[1]}` + strings.Repeat(" ", maxBodyBytes), http.StatusBadRequest, true},
		{"/v1/allocate", `{"signature":[1]}`, http.StatusOK, true},
	} {
		var body io.Reader = strings.NewReader(tc.body)
		if tc.chunked {
			body = io.MultiReader(body)
		}
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("POST %s %.40q = %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}

	// Validation error surfaces as 400.
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/allocate",
		AllocateRequest{Signature: []float64{0}, Allocator: "bogus"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown allocator = %d: %s", code, body)
	}

	// Wrong methods.
	for _, url := range []string{"/v1/allocate", "/v1/feedback"} {
		resp, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/stats", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d", resp.StatusCode)
	}
}

// TestServeListenerGracefulDrain covers the SIGTERM path: canceling the serve
// context flips healthz to 503, rejects new work with 503, and returns once
// in-flight requests finish.
func TestServeListenerGracefulDrain(t *testing.T) {
	s := newTestServer(t, fastConfig())
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", s, HTTPOptions{DrainTimeout: 5 * time.Second},
			func(a net.Addr) { addrc <- a.String() })
	}()
	base := "http://" + <-addrc

	var ar AllocateResponse
	if code, body := postJSON(t, http.DefaultClient, base+"/v1/allocate",
		AllocateRequest{Signature: []float64{1}}, &ar); code != http.StatusOK {
		t.Fatalf("allocate before drain = %d: %s", code, body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	// The in-process server object is now draining: allocates keep answering
	// but through the degraded path, with no new trainings.
	resp, err := s.Allocate(context.Background(), AllocateRequest{Signature: []float64{1}})
	if err != nil {
		t.Fatalf("allocate after drain: %v", err)
	}
	if resp.Mode != ModeDegraded || resp.DegradedReason != DegradedDraining {
		t.Fatalf("post-drain mode=%q reason=%q, want degraded/draining", resp.Mode, resp.DegradedReason)
	}
	if _, err := s.Feedback(context.Background(), FeedbackRequest{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain feedback err = %v", err)
	}
}
