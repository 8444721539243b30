package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"
)

// ServeConfig tunes the exposition server.
type ServeConfig struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// Extra mounts additional handlers on the exposition mux, keyed by
	// pattern (net/http ServeMux syntax, method and wildcard patterns
	// included). The daemon control plane rides the same listener as
	// /metrics this way. Extra patterns must not collide with the
	// built-in ones. A server with Extra handlers is a control plane:
	// every route on it, the built-in ones included, passes SameOrigin.
	Extra map[string]http.Handler
}

// Server is a running exposition endpoint; Close shuts it down.
type Server struct {
	ln  net.Listener
	srv *http.Server
	reg *Registry
}

// Addr returns the bound address (useful with ":0" listens).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, releases the listener and takes its registry
// out of /debug/vars.
func (s *Server) Close() error {
	unpublishExpvar(s.reg)
	return s.srv.Close()
}

// expvarOnce guards the one-time publication of the process-wide list
// of served registries into the standard expvar namespace: expvar.Publish
// panics on duplicate names, and tests start many servers. A registry is
// on the list while a server serves it.
var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarRegs []*Registry
)

func unpublishExpvar(r *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if i := slices.Index(expvarRegs, r); i >= 0 {
		expvarRegs = slices.Delete(expvarRegs, i, i+1)
	}
}

func publishExpvar(r *Registry) {
	expvarMu.Lock()
	expvarRegs = append(expvarRegs, r)
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("fecperf", expvar.Func(func() any {
			expvarMu.Lock()
			regs := append([]*Registry(nil), expvarRegs...)
			expvarMu.Unlock()
			out := map[string]any{}
			for _, reg := range regs {
				reg.Each(func(name string, labels Labels, kind string, value float64, hist *HistSnapshot) {
					key := name + labels.render()
					if hist != nil {
						out[key] = map[string]any{"count": hist.Total(), "sum": float64(hist.Sum) * hist.Unit}
						return
					}
					out[key] = value
				})
			}
			return out
		}))
	})
}

// Handler serves the registry: Prometheus text on plain GETs, the JSON
// view when the URL ends in .json, has format=json, or the client only
// accepts application/json.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, ".json") ||
			req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			r.WriteJSON(w) //nolint:errcheck
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck
	})
}

// Serve starts an HTTP exposition server on addr:
//
//	/metrics       Prometheus text format
//	/metrics.json  the same registry as one JSON object
//	/debug/vars    standard expvar (the served registries under "fecperf")
//	/debug/pprof/  (with ServeConfig.Pprof) the standard profiles
//
// It returns once the listener is bound, serving in a background
// goroutine; Close the server to stop. addr ":0" picks a free port —
// read it back with Addr. With ServeConfig.Extra handlers every route
// refuses a request from another site (SameOrigin); a metrics-only
// server stays open to scrapers that reach it by a DNS name.
func Serve(addr string, r *Registry, cfg ServeConfig) (*Server, error) {
	if r == nil {
		return nil, fmt.Errorf("obs: Serve needs a registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listen %s: %w", addr, err)
	}
	publishExpvar(r)
	mux := http.NewServeMux()
	h := r.Handler()
	mux.Handle("/metrics", h)
	mux.Handle("/metrics.json", h)
	mux.Handle("/debug/vars", expvar.Handler())
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for pattern, handler := range cfg.Extra {
		mux.Handle(pattern, handler)
	}
	var handler http.Handler = mux
	if len(cfg.Extra) > 0 {
		handler = SameOrigin(mux)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Close shuts it down; the error is ErrServerClosed
	return &Server{ln: ln, srv: srv, reg: r}, nil
}

// SameOrigin refuses, with 403, a request that a browser sent on another
// site's behalf: one whose Host is not the address it reached the
// listener on (a DNS-rebound name), or whose Origin is not the listener's
// own (a cross-site page). A request with no Origin — curl, a Go client —
// is not from a page. Serve gates a server with Extra handlers with it;
// the daemon's ControlHandler carries it wherever it is mounted.
func SameOrigin(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		local, ok := r.Context().Value(http.LocalAddrContextKey).(net.Addr)
		if o := r.Header.Get("Origin"); (ok && !hostIs(r.Host, local)) || (o != "" && !strings.EqualFold(o, "http://"+r.Host)) {
			http.Error(w, fmt.Sprintf("obs: host %q, origin %q: not this listener's own", r.Host, o), http.StatusForbidden)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// hostIs reports whether a Host header names the local address: its IP
// and port, or localhost and the port where the address is a loopback
// one. A Host without a port means port 80.
func hostIs(host string, local net.Addr) bool {
	want, err := netip.ParseAddrPort(local.String())
	if err != nil {
		return false
	}
	name, port, err := net.SplitHostPort(host)
	if err != nil {
		name, port = strings.Trim(host, "[]"), "80"
	}
	if port != fmt.Sprint(want.Port()) {
		return false
	}
	if strings.EqualFold(name, "localhost") {
		return want.Addr().IsLoopback()
	}
	ip, err := netip.ParseAddr(name)
	return err == nil && ip.Unmap() == want.Addr().Unmap()
}
