package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestDebugHandlerServesPprof checks the one debug mux both commands
// serve: the registry endpoints and the pprof index answer 200.
func TestDebugHandlerServesPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	h := DebugHandler(reg)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/metrics", "/debug/fetches", "/debug/vars"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}
