package tip

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
)

// API is the HTTP front of a Service, mirroring the MISP REST surface the
// platform uses (PyMISP in the paper):
//
//	POST   /events                      store an event (wrapped or bare)
//	POST   /events/batch                store an array of events (group commit)
//	GET    /events/changes?after=SEQ&limit=N&wait=D
//	                                    list events in ingest order,
//	                                    paginated (default limit 1000,
//	                                    max 5000); X-CAISP-Seq carries the
//	                                    next cursor, X-CAISP-More reports
//	                                    whether pages remain
//	GET    /events/{uuid}               fetch one event
//	DELETE /events/{uuid}               remove one event
//	GET    /events/{uuid}/export?format=misp|stix2|csv
//	POST   /events/search               run a SearchQuery
//	POST   /import/stix                 import a STIX 2.0 bundle
//	GET    /stats                       instance counters
//
// Authentication follows MISP: an API key in the Authorization header.
type API struct {
	service *Service
	apiKey  string
	mux     *http.ServeMux
}

// NewAPI builds the HTTP handler. An empty apiKey disables authentication.
func NewAPI(service *Service, apiKey string) *API {
	a := &API{service: service, apiKey: apiKey, mux: http.NewServeMux()}
	a.mux.HandleFunc("POST /events", a.handleAddEvent)
	a.mux.HandleFunc("POST /events/batch", a.handleAddEventBatch)
	a.mux.HandleFunc("GET /events/changes", a.handleListChanges)
	a.mux.HandleFunc("GET /events/{uuid}", a.handleGetEvent)
	a.mux.HandleFunc("DELETE /events/{uuid}", a.handleDeleteEvent)
	a.mux.HandleFunc("GET /events/{uuid}/export", a.handleExport)
	a.mux.HandleFunc("POST /events/search", a.handleSearch)
	a.mux.HandleFunc("POST /import/stix", a.handleImportSTIX)
	a.mux.HandleFunc("GET /stats", a.handleStats)
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a.apiKey != "" && r.Header.Get("Authorization") != a.apiKey {
		httpError(w, http.StatusUnauthorized, "invalid or missing API key")
		return
	}
	a.mux.ServeHTTP(w, r)
}

func (a *API) handleAddEvent(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	e, err := misp.UnmarshalWrapped(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	a.addEvent(w, e)
}

// addEvent stores one decoded event and answers 201 with its
// correlations; a revision older than its UUID's deletion is 409.
func (a *API) addEvent(w http.ResponseWriter, e *misp.Event) {
	correlated, err := a.service.AddEvent(e)
	switch {
	case errors.Is(err, storage.ErrStale):
		httpError(w, http.StatusConflict, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		obs.WriteJSON(w, http.StatusCreated, map[string]any{"uuid": e.UUID, "correlated": correlated})
	}
}

// handleAddEventBatch stores a JSON array of (wrapped or bare) events via
// the group-commit path. The response reports the stored UUIDs and any
// per-event rejection messages; the batch succeeds as long as the valid
// subset was committed.
func (a *API) handleAddEventBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	events, rejectedErrs, err := misp.UnmarshalWrappedList(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "batch must be a JSON array: "+err.Error())
		return
	}
	var rejected []string
	for _, err := range rejectedErrs {
		rejected = append(rejected, err.Error())
	}
	stored, err := a.service.AddEvents(events)
	if err != nil && len(stored) == 0 && len(events) > 0 {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err != nil {
		rejected = append(rejected, err.Error())
	}
	uuids := make([]string, 0, len(stored))
	for _, e := range stored {
		uuids = append(uuids, e.UUID)
	}
	obs.WriteJSON(w, http.StatusCreated, map[string]any{
		"stored":   uuids,
		"rejected": rejected,
	})
}

// Pagination bounds for GET /events/changes: requests without a limit get
// defaultPageLimit, and no request may ask for more than maxPageLimit
// events in one response.
const (
	defaultPageLimit = 1000
	maxPageLimit     = 5000
)

// MoreHeader is the GET /events/changes response header reporting whether
// pages remain beyond the returned one ("true"/"false").
const MoreHeader = "X-CAISP-More"

// SeqHeader is the GET /events/changes response header carrying the
// ingest sequence the next page should resume after.
const SeqHeader = "X-CAISP-Seq"

// maxRequestBytes bounds a request body; a longer one answers 413.
const maxRequestBytes = 32 << 20

// wireTombstone is the deletion item on GET /events/changes pages: the
// tombstoned UUID plus the deletion wall time (Unix seconds) importers
// compare against a concurrent edit. It rides under an "EventTombstone"
// key, so clients predating tombstones decode it as a wrapped item with
// a nil Event and skip it.
type wireTombstone struct {
	UUID      string `json:"uuid"`
	DeletedAt int64  `json:"deleted_at"`
}

// wireTombstoneItem is one tombstone element of a change-page array.
type wireTombstoneItem struct {
	EventTombstone wireTombstone `json:"EventTombstone"`
}

// handleListChanges serves the ingest-sequence change feed the mesh
// replicates over: GET /events/changes?after=<seq>&limit=<n>&wait=<d>.
// The response carries the resume sequence in SeqHeader and the usual
// MoreHeader pagination flag. Page items are either wrapped events or
// EventTombstone deletion markers. With wait, a request that finds
// nothing after its cursor is held until the store commits or the wait
// runs out (Service.ChangesWait): a peer hears of a commit unpolled.
func (a *API) handleListChanges(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var after uint64
	if raw := q.Get("after"); raw != "" {
		parsed, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad after parameter")
			return
		}
		after = parsed
	}
	limit := defaultPageLimit
	if raw := q.Get("limit"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 {
			httpError(w, http.StatusBadRequest, "bad limit parameter")
			return
		}
		limit = parsed
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	wait, err := parseWait(q.Get("wait"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad wait parameter")
		return
	}
	changes, next, more, err := a.service.ChangesWait(r.Context(), after, limit, wait)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set(SeqHeader, strconv.FormatUint(next, 10))
	w.Header().Set(MoreHeader, strconv.FormatBool(more))
	items := make([]wireItem, 0, len(changes))
	for _, c := range changes {
		// Organisation-only events never leave this node (local readers of
		// Service.Changes still see them); SeqHeader moves past them anyway.
		if c.Event != nil && c.Event.Distribution == misp.DistributionOrganisation {
			continue
		}
		var item wireItem
		var err error
		if c.Event == nil {
			item.body, err = json.Marshal(wireTombstoneItem{EventTombstone: wireTombstone{
				UUID: c.UUID, DeletedAt: c.DeletedAt.Unix()}})
		} else if item.body, err = a.service.WrappedJSONFor(c.Event); err == nil && c.Prov != nil {
			item.prov, err = json.Marshal(c.Prov)
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		items = append(items, item)
	}
	writeList(w, r, items)
}

// parseWait reads the change feed's wait parameter: a Go duration, absent
// meaning none, capped at storage.MaxWait.
func parseWait(raw string) (time.Duration, error) {
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("tip: bad wait %q", raw)
	}
	return min(d, storage.MaxWait), nil
}

// provenanceInfix opens the "Provenance" sibling that carries an event's
// cross-node trace context on a change page. It is written between a
// cached {"Event":…} encoding cut before its closing brace and the
// provenance JSON, so the event is neither re-marshaled nor copied.
// Clients that predate provenance ignore the extra key.
var provenanceInfix = []byte(`,"Provenance":`)

// The other byte strings writeList frames a list with.
var listOpen, listSep, listClose, objectClose = []byte("["), []byte(","), []byte("]\n"), []byte("}")

func (a *API) handleGetEvent(w http.ResponseWriter, r *http.Request) {
	e, err := a.service.GetEvent(r.PathValue("uuid"))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, storage.ErrNotFound) {
			status = http.StatusNotFound
		}
		httpError(w, status, err.Error())
		return
	}
	data, err := a.service.WrappedJSONFor(e)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeRawJSON(w, http.StatusOK, data)
}

func (a *API) handleDeleteEvent(w http.ResponseWriter, r *http.Request) {
	err := a.service.DeleteEvent(r.PathValue("uuid"))
	if errors.Is(err, storage.ErrNotFound) {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	obs.WriteJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("uuid")})
}

func (a *API) handleExport(w http.ResponseWriter, r *http.Request) {
	e, err := a.service.GetEvent(r.PathValue("uuid"))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, storage.ErrNotFound) {
			status = http.StatusNotFound
		}
		httpError(w, status, err.Error())
		return
	}
	format := r.URL.Query().Get("format")
	if format == FormatMISPJSON || format == "" {
		// The native format is served straight from the store's
		// encode-once cache.
		data, err := a.service.WrappedJSONFor(e)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeRawJSON(w, http.StatusOK, data)
		return
	}
	data, contentType, err := Export(e, format)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (a *API) handleSearch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	var q SearchQuery
	if err := json.Unmarshal(body, &q); err != nil {
		httpError(w, http.StatusBadRequest, "bad search query: "+err.Error())
		return
	}
	events, err := a.service.Search(q)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	a.writeEventList(w, r, events)
}

func (a *API) handleImportSTIX(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		return
	}
	e, err := ImportSTIX(body, time.Now().UTC())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	a.addEvent(w, e)
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, http.StatusOK, json.RawMessage(MarshalStats(a.service.Stats())))
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		} else if errors.Is(err, os.ErrDeadlineExceeded) { // the server's read timeout
			code = http.StatusRequestTimeout
		}
		httpError(w, code, "read body: "+err.Error())
		return nil, err
	}
	if len(strings.TrimSpace(string(body))) == 0 {
		httpError(w, http.StatusBadRequest, "empty body")
		return nil, fmt.Errorf("tip: empty body")
	}
	return body, nil
}

// gzipMinBytes is the smallest event-list payload worth compressing:
// below it the gzip header and flush overhead outweigh the wire savings.
const gzipMinBytes = 1 << 10

// gzipWriters recycles compressors across responses: a fresh gzip.Writer
// allocates and clears its whole state, several times a page's size.
// BestSpeed because a page is compressed once per request, not once per
// revision: a 100-event page of 99 KB travels as 21.4 KB where the
// default level made it 18.3 KB (4.6× against 5.4× smaller, +17 % wire
// bytes) for about half the compressor's CPU (EXPERIMENTS §X17).
var gzipWriters = sync.Pool{New: func() any {
	gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // the level is valid
	return gz
}}

// wireItem is one element of an event list ready to be written: body is
// a complete JSON object (for events the store's cached {"Event":…}
// encoding, shared and read-only); prov, when set, is spliced into body
// as a "Provenance" sibling.
type wireItem struct {
	body, prov []byte
}

// writeEventList answers with a JSON array of wrapped events, each from
// the store's encode-once cache.
func (a *API) writeEventList(w http.ResponseWriter, r *http.Request, events []*misp.Event) {
	items := make([]wireItem, len(events))
	for i, e := range events {
		var err error
		if items[i].body, err = a.service.WrappedJSONFor(e); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	writeList(w, r, items)
}

// writeList streams items as a JSON array straight to the response, with
// no page-sized buffer between. Payloads of gzipMinBytes and more are
// gzip-compressed when the request advertises Accept-Encoding: gzip.
func writeList(w http.ResponseWriter, r *http.Request, items []wireItem) {
	size := len(listOpen) + len(listClose)
	for _, it := range items {
		size += len(it.body) + 1
		if it.prov != nil {
			size += len(provenanceInfix) + len(it.prov)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	var out io.Writer = w
	if size >= gzipMinBytes && acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzipWriters.Get().(*gzip.Writer)
		gz.Reset(w)
		defer func() {
			_ = gz.Close()
			gz.Reset(io.Discard) // do not hold the response past the request
			gzipWriters.Put(gz)
		}()
		out = gz
	}
	w.WriteHeader(http.StatusOK)
	// Write errors mean the client went away; there is no one to tell.
	_, _ = out.Write(listOpen)
	for i, it := range items {
		if i > 0 {
			_, _ = out.Write(listSep)
		}
		if it.prov == nil {
			_, _ = out.Write(it.body)
			continue
		}
		_, _ = out.Write(it.body[:len(it.body)-len(objectClose)])
		_, _ = out.Write(provenanceInfix)
		_, _ = out.Write(it.prov)
		_, _ = out.Write(objectClose)
	}
	_, _ = out.Write(listClose)
}

// acceptsGzip reports whether the request allows a gzip response body.
func acceptsGzip(r *http.Request) bool {
	for _, enc := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc = strings.TrimSpace(enc)
		if enc == "gzip" || strings.HasPrefix(enc, "gzip;") {
			return true
		}
	}
	return false
}

// writeRawJSON writes pre-encoded (possibly cached, shared) JSON bytes.
func writeRawJSON(w http.ResponseWriter, status int, data []byte) {
	obs.WriteJSON(w, status, json.RawMessage(data))
	_, _ = w.Write([]byte{'\n'})
}

func httpError(w http.ResponseWriter, status int, msg string) {
	obs.WriteJSON(w, status, map[string]string{"error": msg})
}
