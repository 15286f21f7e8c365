package lifecycle

import (
	"net/http"

	"github.com/caisplatform/caisp/internal/obs"
)

// API is the read-only HTTP surface of the lifecycle engine: cumulative
// stats and the per-indicator score-history ring the dashboard charts.
type API struct {
	engine *Engine
	mux    *http.ServeMux
}

// NewAPI wraps an engine.
func NewAPI(e *Engine) *API {
	a := &API{engine: e, mux: http.NewServeMux()}
	a.mux.HandleFunc("GET /lifecycle/stats", a.handleStats)
	a.mux.HandleFunc("GET /lifecycle/history", a.handleTracked)
	a.mux.HandleFunc("GET /lifecycle/history/{uuid}", a.handleHistory)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, a.engine.Stats())
}

func (a *API) handleTracked(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, struct {
		Tracked []string `json:"tracked"`
	}{a.engine.Tracked()})
}

func (a *API) handleHistory(w http.ResponseWriter, r *http.Request) {
	uuid := r.PathValue("uuid")
	samples := a.engine.History(uuid)
	if samples == nil {
		obs.WriteJSON(w, http.StatusNotFound, struct {
			Error string `json:"error"`
		}{"no score history for uuid"})
		return
	}
	obs.WriteJSON(w, http.StatusOK, struct {
		UUID    string   `json:"uuid"`
		Samples []Sample `json:"samples"`
	}{uuid, samples})
}
