package service

import (
	"bufio"
	"net"
	"net/http"
	"strconv"

	"repro/wire"
)

// The middleware chain composes the cross-cutting resilience concerns
// around the mux, outermost first:
//
//	recover → chaos → overload gate → deadline → handlers
//
// Recover sits outermost so a panic anywhere below — including one the
// chaos injector throws on purpose — answers 500 with the stable
// "panic" code instead of killing the connection. The gate sheds before
// any decoding happens; the deadline bounds the work that was admitted.

// trackingWriter records whether a response has started, so the recover
// middleware knows whether a 500 can still be written. It forwards the
// optional interfaces the handlers rely on: Flusher for telemetry
// streaming, Hijacker for chaos connection tears, and Unwrap, through
// which http.ResponseController reaches the server's writer to enable
// full duplex for telemetry.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

func (t *trackingWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		t.wrote = true
		f.Flush()
	}
}

func (t *trackingWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

func (t *trackingWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := t.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, http.ErrNotSupported
	}
	t.wrote = true
	return hj.Hijack()
}

// recoverMiddleware is the outermost boundary: any panic escaping the
// chain below is counted and answered as 500/CodePanic when the
// response has not started; a torn response stays torn (the client
// already saw a broken exchange). http.ErrAbortHandler keeps its
// net/http meaning and re-panics.
func (s *Service) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Add(1)
			if !tw.wrote {
				writeError(tw, http.StatusInternalServerError,
					wire.Errorf(wire.CodePanic, "internal panic: %v", rec))
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// gateMiddleware sheds work past the in-flight cap with 503 and a
// Retry-After hint, before the request body is touched. Health and
// stats stay reachable under overload — they are exactly what an
// operator needs then.
func (s *Service) gateMiddleware(next http.Handler) http.Handler {
	if s.cfg.MaxInflight <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/v1/stats" || replicationControl(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if !s.gate.Enter() {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			writeError(w, http.StatusServiceUnavailable,
				wire.Errorf(wire.CodeOverloaded,
					"server over capacity (%d requests in flight)", s.cfg.MaxInflight))
			return
		}
		defer s.gate.Leave()
		next.ServeHTTP(w, r)
	})
}

// deadlineMiddleware bounds each request's context by the client's
// X-Deadline-Ms header clamped into server policy. The telemetry and
// replication streams are exempt: both are long-lived by design and
// bounded per event by the work they do, not per connection.
func (s *Service) deadlineMiddleware(next http.Handler) http.Handler {
	if s.cfg.Deadline.Default <= 0 && s.cfg.Deadline.Max <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/telemetry" || r.URL.Path == "/v1/replicate" {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := s.cfg.Deadline.Context(r)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// retryAfterSeconds is the hint attached to every load-shedding and
// drain refusal: short, because the condition is either transient
// (overload) or terminal for this replica (drain, where the client
// should re-resolve anyway).
const retryAfterSeconds = 1
