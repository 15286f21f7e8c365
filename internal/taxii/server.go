// Package taxii implements a TAXII 2.1 server and client — the standard
// channel the paper recommends for sharing threat intelligence with
// entities that do not run MISP (§II-A pairs STIX for describing cyber
// threat information with TAXII for sharing it in an automated and secure
// way). The server hosts collections of STIX objects with added_after
// filtering and pagination; the client consumes them.
package taxii

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
)

// ContentType is the TAXII 2.1 media type.
const ContentType = "application/taxii+json;version=2.1"

// maxContentLength bounds an add-objects envelope; the API root
// advertises it and a longer body answers 413.
const maxContentLength = 32 << 20

// Discovery is the server metadata document.
type Discovery struct {
	Title       string   `json:"title"`
	Description string   `json:"description,omitempty"`
	Default     string   `json:"default,omitempty"`
	APIRoots    []string `json:"api_roots"`
}

// APIRoot describes one API root.
type APIRoot struct {
	Title            string   `json:"title"`
	Versions         []string `json:"versions"`
	MaxContentLength int      `json:"max_content_length"`
}

// Collection describes one collection.
type Collection struct {
	ID          string   `json:"id"`
	Title       string   `json:"title"`
	Description string   `json:"description,omitempty"`
	CanRead     bool     `json:"can_read"`
	CanWrite    bool     `json:"can_write"`
	MediaTypes  []string `json:"media_types"`
}

// Envelope is the TAXII 2.1 object transport.
type Envelope struct {
	More    bool              `json:"more"`
	Next    string            `json:"next,omitempty"`
	Objects []json.RawMessage `json:"objects"`
}

// ManifestEntry describes one object in a collection manifest.
type ManifestEntry struct {
	ID        string    `json:"id"`
	DateAdded time.Time `json:"date_added"`
	Version   string    `json:"version"`
	MediaType string    `json:"media_type"`
}

// Manifest is the TAXII 2.1 manifest envelope.
type Manifest struct {
	More    bool            `json:"more"`
	Objects []ManifestEntry `json:"objects"`
}

// Status reports the outcome of an object submission.
type Status struct {
	ID           string `json:"id"`
	Status       string `json:"status"`
	TotalCount   int    `json:"total_count"`
	SuccessCount int    `json:"success_count"`
	FailureCount int    `json:"failure_count"`
}

// storedObject couples an object with its server-side addition time.
type storedObject struct {
	raw     json.RawMessage
	id      string
	typ     string
	addedAt time.Time
	seq     int
}

// Server hosts TAXII collections. Safe for concurrent use.
type Server struct {
	title   string
	apiRoot string // path segment, e.g. "caisp"
	apiKey  string
	now     func() time.Time

	mu          sync.RWMutex
	collections map[string]*Collection
	objects     map[string][]storedObject
	seq         int

	mux *http.ServeMux
}

// Option configures a Server.
type Option interface{ apply(*Server) }

type apiKeyOption string

func (o apiKeyOption) apply(s *Server) { s.apiKey = string(o) }

// WithAPIKey requires the Authorization header to equal key.
func WithAPIKey(key string) Option { return apiKeyOption(key) }

type nowOption struct{ now func() time.Time }

func (o nowOption) apply(s *Server) { s.now = o.now }

// WithNow fixes the server clock (tests).
func WithNow(now func() time.Time) Option { return nowOption{now: now} }

// NewServer creates a TAXII server with one API root.
func NewServer(title, apiRoot string, opts ...Option) *Server {
	s := &Server{
		title:       title,
		apiRoot:     apiRoot,
		now:         time.Now,
		collections: make(map[string]*Collection),
		objects:     make(map[string][]storedObject),
	}
	for _, o := range opts {
		o.apply(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /taxii2/", s.handleDiscovery)
	s.mux.HandleFunc("GET /"+apiRoot+"/", s.handleAPIRoot)
	s.mux.HandleFunc("GET /"+apiRoot+"/collections/", s.handleCollections)
	s.mux.HandleFunc("GET /"+apiRoot+"/collections/{id}/", s.handleCollection)
	s.mux.HandleFunc("GET /"+apiRoot+"/collections/{id}/objects/", s.handleGetObjects)
	s.mux.HandleFunc("POST /"+apiRoot+"/collections/{id}/objects/", s.handleAddObjects)
	s.mux.HandleFunc("GET /"+apiRoot+"/collections/{id}/manifest/", s.handleManifest)
	return s
}

// AddCollection registers a collection.
func (s *Server) AddCollection(id, title, description string, canWrite bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collections[id] = &Collection{
		ID:          id,
		Title:       title,
		Description: description,
		CanRead:     true,
		CanWrite:    canWrite,
		MediaTypes:  []string{"application/stix+json;version=2.0"},
	}
}

// AddObjects stores STIX objects into a collection server-side (the path
// the platform uses to publish eIoCs).
func (s *Server) AddObjects(collectionID string, objs ...stix.Object) error {
	raws := make([]json.RawMessage, 0, len(objs))
	for _, o := range objs {
		data, err := stix.Marshal(o)
		if err != nil {
			return err
		}
		raws = append(raws, data)
	}
	n, err := s.addRaw(collectionID, raws)
	if err != nil {
		return err
	}
	if n != len(objs) {
		return fmt.Errorf("taxii: stored %d of %d objects", n, len(objs))
	}
	return nil
}

// ObjectCount reports how many objects a collection holds.
func (s *Server) ObjectCount(collectionID string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects[collectionID])
}

func (s *Server) addRaw(collectionID string, raws []json.RawMessage) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.collections[collectionID]; !ok {
		return 0, fmt.Errorf("taxii: unknown collection %q", collectionID)
	}
	stored := 0
	now := s.now().UTC()
	for _, raw := range raws {
		var head struct {
			ID   string `json:"id"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil || head.ID == "" || head.Type == "" {
			continue
		}
		s.seq++
		s.objects[collectionID] = append(s.objects[collectionID], storedObject{
			raw:     raw,
			id:      head.ID,
			typ:     head.Type,
			addedAt: now,
			seq:     s.seq,
		})
		stored++
	}
	return stored, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.apiKey != "" && r.Header.Get("Authorization") != s.apiKey {
		taxiiError(w, http.StatusUnauthorized, "invalid or missing API key")
		return
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleDiscovery(w http.ResponseWriter, r *http.Request) {
	writeTAXII(w, http.StatusOK, Discovery{
		Title:    s.title,
		Default:  "/" + s.apiRoot + "/",
		APIRoots: []string{"/" + s.apiRoot + "/"},
	})
}

func (s *Server) handleAPIRoot(w http.ResponseWriter, _ *http.Request) {
	writeTAXII(w, http.StatusOK, APIRoot{
		Title:            s.title,
		Versions:         []string{"application/taxii+json;version=2.1"},
		MaxContentLength: maxContentLength,
	})
}

func (s *Server) handleCollections(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	list := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		list = append(list, c)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	writeTAXII(w, http.StatusOK, map[string]any{"collections": list})
}

func (s *Server) handleCollection(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	c, ok := s.collections[r.PathValue("id")]
	s.mu.RUnlock()
	if !ok {
		taxiiError(w, http.StatusNotFound, "unknown collection")
		return
	}
	writeTAXII(w, http.StatusOK, c)
}

func (s *Server) handleGetObjects(w http.ResponseWriter, r *http.Request) {
	collectionID := r.PathValue("id")
	s.mu.RLock()
	_, known := s.collections[collectionID]
	objs := make([]storedObject, len(s.objects[collectionID]))
	copy(objs, s.objects[collectionID])
	s.mu.RUnlock()
	if !known {
		taxiiError(w, http.StatusNotFound, "unknown collection")
		return
	}

	q := r.URL.Query()
	if raw := q.Get("added_after"); raw != "" {
		after, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			taxiiError(w, http.StatusBadRequest, "bad added_after")
			return
		}
		var kept []storedObject
		for _, o := range objs {
			if o.addedAt.After(after) {
				kept = append(kept, o)
			}
		}
		objs = kept
	}
	if typ := q.Get("match[type]"); typ != "" {
		var kept []storedObject
		for _, o := range objs {
			if o.typ == typ {
				kept = append(kept, o)
			}
		}
		objs = kept
	}
	if id := q.Get("match[id]"); id != "" {
		var kept []storedObject
		for _, o := range objs {
			if o.id == id {
				kept = append(kept, o)
			}
		}
		objs = kept
	}
	if raw := q.Get("next"); raw != "" {
		afterSeq, err := strconv.Atoi(raw)
		if err != nil {
			taxiiError(w, http.StatusBadRequest, "bad next token")
			return
		}
		var kept []storedObject
		for _, o := range objs {
			if o.seq > afterSeq {
				kept = append(kept, o)
			}
		}
		objs = kept
	}

	limit := 100
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			taxiiError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = n
	}

	env := Envelope{Objects: []json.RawMessage{}}
	for i, o := range objs {
		if i >= limit {
			env.More = true
			env.Next = strconv.Itoa(objs[i-1].seq)
			break
		}
		env.Objects = append(env.Objects, o.raw)
	}
	writeTAXII(w, http.StatusOK, env)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	collectionID := r.PathValue("id")
	s.mu.RLock()
	_, known := s.collections[collectionID]
	objs := make([]storedObject, len(s.objects[collectionID]))
	copy(objs, s.objects[collectionID])
	s.mu.RUnlock()
	if !known {
		taxiiError(w, http.StatusNotFound, "unknown collection")
		return
	}
	if raw := r.URL.Query().Get("added_after"); raw != "" {
		after, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			taxiiError(w, http.StatusBadRequest, "bad added_after")
			return
		}
		var kept []storedObject
		for _, o := range objs {
			if o.addedAt.After(after) {
				kept = append(kept, o)
			}
		}
		objs = kept
	}
	manifest := Manifest{Objects: []ManifestEntry{}}
	for _, o := range objs {
		manifest.Objects = append(manifest.Objects, ManifestEntry{
			ID:        o.id,
			DateAdded: o.addedAt,
			Version:   o.addedAt.UTC().Format(time.RFC3339),
			MediaType: "application/stix+json;version=2.0",
		})
	}
	writeTAXII(w, http.StatusOK, manifest)
}

func (s *Server) handleAddObjects(w http.ResponseWriter, r *http.Request) {
	collectionID := r.PathValue("id")
	s.mu.RLock()
	c, ok := s.collections[collectionID]
	s.mu.RUnlock()
	if !ok {
		taxiiError(w, http.StatusNotFound, "unknown collection")
		return
	}
	if !c.CanWrite {
		taxiiError(w, http.StatusForbidden, "collection is read-only")
		return
	}
	var env Envelope
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxContentLength)).Decode(&env); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		} else if errors.Is(err, os.ErrDeadlineExceeded) { // the server's read timeout
			code = http.StatusRequestTimeout
		}
		taxiiError(w, code, "bad envelope: "+err.Error())
		return
	}
	stored, err := s.addRaw(collectionID, env.Objects)
	if err != nil {
		taxiiError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeTAXII(w, http.StatusAccepted, Status{
		ID:           fmt.Sprintf("status-%d", s.now().UnixNano()),
		Status:       "complete",
		TotalCount:   len(env.Objects),
		SuccessCount: stored,
		FailureCount: len(env.Objects) - stored,
	})
}

func writeTAXII(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func taxiiError(w http.ResponseWriter, status int, msg string) {
	writeTAXII(w, status, map[string]string{"title": msg})
}
