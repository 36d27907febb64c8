package brewsvc

import (
	"encoding/json"
	"net"
	"net/http"

	"repro/internal/obs"
)

// ServeIntrospection starts the opt-in HTTP introspection listener on
// addr (e.g. "127.0.0.1:0" to bind an ephemeral port) and returns the
// bound address plus a stop function. Endpoints:
//
//	/metrics  Prometheus text exposition: the per-stage/per-tier span
//	          summaries and the flight-recorder sequence (obs.WriteProm)
//	/inspect  the Inspection snapshot as JSON
//	/events   the full flight-recorder dump as JSON
//	/         the rendered Inspection (the brew-top dashboard as text)
//
// The listener is plain HTTP with no auth — bind it to localhost. It is
// read-only: no endpoint mutates service state. Stop is idempotent and
// does not close the service itself.
func (s *Service) ServeIntrospection(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.Default.WriteProm(w)
	})
	mux.HandleFunc("/inspect", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Inspect())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(obs.Events())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(s.Inspect().Render()))
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	stop := func() { _ = srv.Close() }
	return ln.Addr().String(), stop, nil
}
