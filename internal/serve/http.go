package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"time"
)

// maxBodyBytes bounds request bodies; feature matrices for paper-scale
// problems are well under a megabyte.
const maxBodyBytes = 8 << 20

var errBodyTooLarge = errors.New("read body: request body too large")

// HTTPOptions tunes the HTTP front-end.
type HTTPOptions struct {
	// RequestTimeout bounds each request's handling, including any policy
	// training it leads (default 120s — cold paths train).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown once the serve context is
	// canceled (default 10s).
	DrainTimeout time.Duration
	// ReadHeaderTimeout guards against slowloris clients (default 5s).
	ReadHeaderTimeout time.Duration
	// ExtraRoutes mounts additional handlers behind the same middleware
	// chain (recovery + per-request timeout). The cluster tier uses it to
	// mount the /v1/gossip membership endpoint on every shard.
	ExtraRoutes map[string]http.HandlerFunc
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 120 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.ReadHeaderTimeout <= 0 {
		o.ReadHeaderTimeout = 5 * time.Second
	}
	return o
}

// NewHandler wires the service's HTTP/JSON API:
//
//	POST /v1/allocate   — AllocateRequest  → AllocateResponse
//	POST /v1/feedback   — FeedbackRequest  → FeedbackResponse
//	POST /v1/replicate  — checkpoint-v2 policy push from a primary owner
//	GET  /v1/stats      — Stats
//	GET  /v1/checkpoint — checkpoint-v2 export (?clusters=3,17 scopes it,
//	                      ?after=K&limit=N pages it for anti-entropy pulls)
//	GET  /v1/cluster    — the node's ClusterNodeStats (or standalone)
//	GET  /healthz      — liveness
func NewHandler(s *Server, opts HTTPOptions) http.Handler {
	return newHandler(s, opts, opts.ExtraRoutes)
}

// newHandler is NewHandler plus injected extra routes, so tests can mount a
// deliberately panicking handler behind the real middleware chain.
func newHandler(s *Server, opts HTTPOptions, extra map[string]http.HandlerFunc) http.Handler {
	opts = opts.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		// The allocate hot path reads the body into and decodes it into a
		// pooled workspace: the body buffer, the request's slices, the
		// response and every scratch the pipeline touches are recycled
		// across requests.
		ws := s.getWS()
		defer s.putWS(ws)
		if !readRequest(w, r, ws, func(body []byte) error { return decodeAllocate(body, &ws.req) }) {
			return
		}
		if err := s.AllocateInto(r.Context(), ws.req, ws); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, &ws.resp)
	})
	mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) {
		var req FeedbackRequest
		ws := s.getWS()
		ok := readRequest(w, r, ws, func(body []byte) error { return decodeFeedback(body, &req) })
		s.putWS(ws) // req owns its slices; only the body buffer was borrowed
		if !ok {
			return
		}
		resp, err := s.Feedback(r.Context(), req)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/v1/replicate", s.handleReplicate)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpointExport)
	mux.HandleFunc("/v1/cluster", s.handleClusterStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		code := http.StatusOK
		if s.draining.Load() {
			status, code = "draining", http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]string{"status": status})
	})
	for pattern, h := range extra {
		mux.HandleFunc(pattern, h)
	}
	return withRecovery(withTimeout(mux, opts.RequestTimeout), s)
}

// withRecovery absorbs handler panics: one broken request must not take down
// the listener goroutine or silently drop the connection. The panic is logged
// with its stack, counted in Stats.RecoveredPanics, and answered with a 500
// when the response hasn't started.
func withRecovery(next http.Handler, s *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.cfg.Logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				// Best effort: if the handler already wrote a header this
				// is a no-op superfluous-WriteHeader log, not a crash.
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withTimeout attaches a per-request deadline to the request context. The
// handlers run in the request goroutine, so a coalesced allocate waiting on
// a slow training gives up when the deadline fires.
func withTimeout(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// readRequest reads a POST body into ws.body, at most maxBodyBytes of it,
// and decodes it. It answers 405 and 400 itself and reports whether the
// handler goes on.
func readRequest(w http.ResponseWriter, r *http.Request, ws *allocWS, decode func([]byte) error) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return false
	}
	var err error
	if ws.body, err = ReadBody(ws.body[:0], r, maxBodyBytes); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	if err := decode(ws.body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return false
	}
	return true
}

// ReadBody appends r's body onto dst, reading at most limit bytes; a longer
// body is an error. The cluster router reads proxied bodies with it too.
func ReadBody(dst []byte, r *http.Request, limit int64) ([]byte, error) {
	if n := r.ContentLength; n > limit {
		return dst, errBodyTooLarge
	} else if n > 0 {
		dst = slices.Grow(dst, int(n)+1) // +1: room to read EOF without growing
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if int64(len(dst)) > limit {
			return dst, errBodyTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, fmt.Errorf("read body: %w", err)
		}
	}
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// ServeListener runs the HTTP front-end on an existing listener until ctx is
// canceled, then drains gracefully: the server flips into draining mode
// (allocates answer degraded without starting trainings, feedback fails fast,
// /healthz reports draining so load balancers stop routing), and in-flight
// requests get DrainTimeout to finish.
func ServeListener(ctx context.Context, ln net.Listener, s *Server, opts HTTPOptions) error {
	opts = opts.withDefaults()
	return serveHandler(ctx, ln, NewHandler(s, opts), s, opts)
}

// serveHandler is ServeListener with the handler injected, so tests can run
// the real serve/drain loop around a handler with extra routes.
func serveHandler(ctx context.Context, ln net.Listener, h http.Handler, s *Server, opts HTTPOptions) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: opts.ReadHeaderTimeout,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.Drain()
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// ListenAndServe binds addr and calls ServeListener. The bound address is
// reported through the optional ready callback (useful with ":0").
func ListenAndServe(ctx context.Context, addr string, s *Server, opts HTTPOptions, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return ServeListener(ctx, ln, s, opts)
}
