package subscribe

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/stixpattern"
	"github.com/caisplatform/caisp/internal/wsock"
)

// API is the HTTP front of the subscription engine, mounted on both tipd
// and caispd:
//
//	POST   /subscriptions            register {"client_id": ..., "pattern": ...}
//	GET    /subscriptions?client=ID  list subscriptions (optionally one client's)
//	GET    /subscriptions/stats      engine counters
//	DELETE /subscriptions/{id}       unsubscribe
//	GET    /ws/matches               WebSocket match stream
//
// Registration failures are structured: syntax errors return 400 with the
// parser's byte offset, oversized patterns 400 with the cap, bodies over
// maxRegisterBytes 413, exhausted per-client quotas 429.
type API struct {
	engine *Engine
}

// NewAPI builds the HTTP front of an engine.
func NewAPI(e *Engine) *API { return &API{engine: e} }

// Register mounts the API's routes on mux, the listener's own: the one
// list of them. Each is method-qualified, so a mux that also serves a
// catch-all ("GET /" or "/") keeps it for every other path.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /subscriptions", a.handleRegister)
	mux.HandleFunc("GET /subscriptions", a.handleList)
	mux.HandleFunc("GET /subscriptions/stats", a.handleStats)
	mux.HandleFunc("DELETE /subscriptions/{id}", a.handleUnsubscribe)
	mux.HandleFunc("GET /ws/matches", a.handleWS)
}

// registerRequest is the POST /subscriptions body. TTL, when present, is
// a Go duration string ("30m", "24h"); the subscription expires that long
// after registration.
type registerRequest struct {
	ClientID string `json:"client_id"`
	Pattern  string `json:"pattern"`
	TTL      string `json:"ttl,omitempty"`
}

// maxRegisterBytes bounds a POST /subscriptions body.
const maxRegisterBytes = 1 << 20

// apiError is the structured error body.
type apiError struct {
	Error string `json:"error"`
	// Position is the byte offset of a pattern syntax error.
	Position *int `json:"position,omitempty"`
	// Length/Limit describe cap violations (pattern size, client quota).
	Length int `json:"length,omitempty"`
	Limit  int `json:"limit,omitempty"`
}

func (a *API) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	body := http.MaxBytesReader(w, r.Body, maxRegisterBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		obs.WriteJSON(w, code, apiError{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Pattern == "" {
		obs.WriteJSON(w, http.StatusBadRequest, apiError{Error: "missing pattern"})
		return
	}
	var ttl time.Duration
	if req.TTL != "" {
		d, err := time.ParseDuration(req.TTL)
		if err != nil {
			obs.WriteJSON(w, http.StatusBadRequest, apiError{Error: "bad ttl: " + err.Error()})
			return
		}
		if d <= 0 {
			obs.WriteJSON(w, http.StatusBadRequest, apiError{Error: "bad ttl: must be positive"})
			return
		}
		ttl = d
	}
	sub, err := a.engine.RegisterTTL(req.ClientID, req.Pattern, ttl)
	if err != nil {
		var serr *stixpattern.SyntaxError
		var tooLarge *PatternTooLargeError
		var limit *ClientLimitError
		switch {
		case errors.As(err, &serr):
			pos := serr.Pos
			obs.WriteJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Position: &pos})
		case errors.As(err, &tooLarge):
			obs.WriteJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Length: tooLarge.Length, Limit: tooLarge.Limit})
		case errors.As(err, &limit):
			obs.WriteJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error(), Limit: limit.Limit})
		default:
			obs.WriteJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		}
		return
	}
	obs.WriteJSON(w, http.StatusCreated, sub)
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	subs := a.engine.List(r.URL.Query().Get("client"))
	if subs == nil {
		subs = []*Subscription{}
	}
	obs.WriteJSON(w, http.StatusOK, subs)
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, a.engine.Stats())
}

func (a *API) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := a.engine.Unsubscribe(id); err != nil {
		obs.WriteJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// wsHello greets each new match-stream watcher.
type wsHello struct {
	Kind       string `json:"kind"` // "hello"
	Registered int    `json:"registered"`
}

func (a *API) handleWS(w http.ResponseWriter, r *http.Request) {
	conn, err := wsock.Accept(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	a.engine.AddWatcher(conn)
	// Reader loop: answers pings, detects close, evicts on error.
	go func() {
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				a.engine.RemoveWatcher(conn)
				_ = conn.Close()
				return
			}
		}
	}()
	if data, err := json.Marshal(wsHello{Kind: "hello", Registered: a.engine.Len()}); err == nil {
		_ = conn.WriteText(data)
	}
}
