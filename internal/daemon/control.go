package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"net/netip"
	"strings"
)

// controlRequest is the JSON body of spec-carrying control calls, sent as
// application/json: {"spec": "name=docs,addr=..."}.
type controlRequest struct {
	Spec string `json:"spec"`
}

// controlError is the JSON error envelope.
type controlError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is client's problem
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, controlError{Error: err.Error()})
}

// readSpec extracts the spec line from a control request's JSON body.
// Any other content type is refused with 415: a web page can POST a
// text/plain or form body to any address without asking first, but a
// JSON one only after a CORS preflight, which the daemon never grants.
func readSpec(w http.ResponseWriter, r *http.Request) (string, bool) {
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt != "application/json" {
		writeError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("daemon: request body must be application/json ({\"spec\": \"...\"}), not %q", r.Header.Get("Content-Type")))
		return "", false
	}
	var req controlRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: request body: %w", err))
		return "", false
	}
	if strings.TrimSpace(req.Spec) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: request body has no \"spec\""))
		return "", false
	}
	return req.Spec, true
}

// sameOrigin refuses, with 403, a request that a browser sent on another
// site's behalf: one whose Host is not the address it reached the
// listener on (a DNS-rebound name), or whose Origin is not the listener's
// own (a cross-site page). A request with no Origin — curl, a Go client —
// is not from a page. A handler served without a listener (called
// directly) has no address to match, and checks the Origin only.
func sameOrigin(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if local, ok := r.Context().Value(http.LocalAddrContextKey).(net.Addr); ok && !hostIs(r.Host, local) {
			writeError(w, http.StatusForbidden, fmt.Errorf("daemon: host %q is not this listener's address %s", r.Host, local))
			return
		}
		if o := r.Header.Get("Origin"); o != "" && !strings.EqualFold(o, "http://"+r.Host) {
			writeError(w, http.StatusForbidden, fmt.Errorf("daemon: cross-origin request from %q refused", o))
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

// ControlHandler returns the daemon's HTTP/JSON control plane:
//
//	GET    /casts                list every cast
//	POST   /casts                add a cast (body: {"spec": "..."})
//	GET    /casts/{name}         one cast's status
//	DELETE /casts/{name}         remove a cast (immediate, not a drain)
//	POST   /casts/{name}/reload  hot-reload mutable keys (body: {"spec": "..."})
//	POST   /drain                begin a graceful drain (202; poll GET /casts)
//
// Bodies are application/json, and every route refuses a request whose
// Host or Origin is not the listener's own (see sameOrigin), so a web page
// a browser visits cannot drive the daemon. Mount it on the obs
// exposition server via ServeConfig.Extra so the control plane and
// /metrics share one listener.
func (d *Daemon) ControlHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /casts", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"casts":    d.Casts(),
			"draining": d.Draining(),
			"rate":     d.Rate(),
		})
	})
	mux.HandleFunc("POST /casts", func(w http.ResponseWriter, r *http.Request) {
		line, ok := readSpec(w, r)
		if !ok {
			return
		}
		cs, err := ParseCastSpec(line)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := d.AddCast(cs); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		st, _ := d.CastStatus(cs.Name)
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /casts/{name}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := d.CastStatus(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("daemon: no cast %s", r.PathValue("name")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /casts/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := d.RemoveCast(r.PathValue("name")); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /casts/{name}/reload", func(w http.ResponseWriter, r *http.Request) {
		line, ok := readSpec(w, r)
		if !ok {
			return
		}
		name := r.PathValue("name")
		if err := d.ReloadSpec(name, line); err != nil {
			code := http.StatusConflict // immutable-key diffs and unknown casts
			writeError(w, code, err)
			return
		}
		st, _ := d.CastStatus(name)
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		go d.Drain(context.Background()) //nolint:errcheck // status is observable via GET /casts
		writeJSON(w, http.StatusAccepted, map[string]any{"draining": true})
	})
	return sameOrigin(mux)
}
