package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a running debug endpoint (see Serve).
type Server struct {
	// Addr is the bound listen address, e.g. "127.0.0.1:6060" — useful
	// when Serve was asked for port 0.
	Addr string
	srv  *http.Server
}

// DebugMux returns the debug endpoint's routes on a fresh mux, so
// long-running servers (cmd/flashd) can mount them on their own
// http.Server instead of running a second listener:
//
//	/metrics        Prometheus text snapshot of reg
//	/slow           slow-read trace as JSONL
//	/debug/vars     expvar (cmdline, memstats)
//	/debug/pprof/   CPU/heap/goroutine/... profiles
//
// Snapshots are taken per request, so the endpoint observes a live run.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = reg.Snapshot().WriteSlowJSONL(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug HTTP endpoint on addr (routes per DebugMux)
// and returns once the listener is bound. The caller owns shutdown via
// Close (immediate) or Shutdown (graceful).
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{Addr: ln.Addr().String(), srv: &http.Server{
		Handler: DebugMux(reg),
		// A debug port must not be slowloris-able: clients get 5s to
		// finish their request headers.
		ReadHeaderTimeout: 5 * time.Second,
	}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close shuts the endpoint down, dropping in-flight scrapes.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
