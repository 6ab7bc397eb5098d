package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// MetricsHandler serves a registry snapshot as JSON — the body of the
// /debug/metrics endpoint mounted by the gateway and by DebugHandler. A
// nil registry serves the empty snapshot, so the endpoint can be mounted
// unconditionally.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			// Headers are gone; nothing recoverable remains.
			return
		}
	})
}

// fetchesPayload is the serialized shape of /debug/fetches.
type fetchesPayload struct {
	Total   int64         `json:"total"`
	Fetches []FetchRecord `json:"fetches"`
}

// FetchesHandler serves the registry's recent fetch records as JSON,
// newest first — the /debug/fetches endpoint. The optional ?n= query
// parameter caps the number of records returned. A nil registry serves
// an empty log.
func FetchesHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		max := 0
		if s := req.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			max = v
		}
		log := r.FetchLog()
		payload := fetchesPayload{Total: log.Total(), Fetches: log.Recent(max)}
		if payload.Fetches == nil {
			payload.Fetches = []FetchRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return
		}
		w.Write(append(data, '\n'))
	})
}

// DebugHandler is the operator debug surface that mrtserver and mrtfront
// serve on their -metrics-addr listener: /debug/metrics and
// /debug/fetches over the registry, the process's expvar namespace at
// /debug/vars, and the standard net/http/pprof profiles under
// /debug/pprof/. Profiles expose the process's internals and cost CPU
// while they run, so this handler belongs on a private address, never on
// a public mux such as the HTTP gateway's. (Importing net/http/pprof also
// registers the profiles on http.DefaultServeMux, as importing expvar
// registers /debug/vars; nothing in this module serves that mux.)
func DebugHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /debug/metrics", MetricsHandler(r))
	mux.Handle("GET /debug/fetches", FetchesHandler(r))
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug publishes the registry to expvar as "mobweb", listens on
// addr and serves DebugHandler there until the returned server is
// closed. It prints the bound address, so addr may name port 0.
func ServeDebug(addr string, r *Registry) (*http.Server, error) {
	if err := r.PublishExpvar("mobweb"); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: DebugHandler(r)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Printf("metrics listener stopped: %v\n", err)
		}
	}()
	fmt.Printf("metrics on %s (/debug/metrics, /debug/fetches, /debug/vars, /debug/pprof/)\n", ln.Addr())
	return srv, nil
}
