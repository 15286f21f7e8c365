package lifecycle

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHistoryUnknownUUIDAnswersJSON: the 404 for a UUID with no score
// history is a JSON reply like every other lifecycle route.
func TestHistoryUnknownUUIDAnswersJSON(t *testing.T) {
	api := NewAPI(New(openStore(t)))
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lifecycle/history/no-such-uuid", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	if body, want := rec.Body.String(), `{"error":"no score history for uuid"}`+"\n"; body != want {
		t.Fatalf("body %q, want %q", body, want)
	}
}
