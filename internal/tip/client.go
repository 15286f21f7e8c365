package tip

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
)

// defaultRequestTimeout bounds each request issued by a Client when the
// caller's context carries no deadline of its own. Without it a hung
// remote (accepted connection, no response) would wedge a mesh sync
// worker forever; with it the worker gets an error and backs off.
const defaultRequestTimeout = 30 * time.Second

// Client talks to a TIP instance's REST API — the role PyMISP plays in the
// paper's information-sharing process (§IV-A). Every method takes a
// context; when the context has no deadline the client applies its
// per-request timeout (WithRequestTimeout, 30s by default) so no call can
// block indefinitely on an unresponsive peer.
type Client struct {
	baseURL    string
	apiKey     string
	http       *http.Client
	reqTimeout time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRequestTimeout sets the deadline applied to each request whose
// context does not already carry one. Zero disables the default and
// leaves deadline control entirely to the caller's context.
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.reqTimeout = d }
}

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, TLS configuration, test doubles).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// NewClient builds a client for the instance at baseURL.
func NewClient(baseURL, apiKey string, opts ...ClientOption) *Client {
	c := &Client{
		baseURL:    baseURL,
		apiKey:     apiKey,
		http:       &http.Client{},
		reqTimeout: defaultRequestTimeout,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// withDeadline applies the client's default per-request timeout when ctx
// has none of its own, plus any change-feed wait the context asks for
// (storage.WithWait): the server may hold the request that long.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := ctx.Deadline(); !ok && c.reqTimeout > 0 {
		return context.WithTimeout(ctx, c.reqTimeout+storage.WaitFrom(ctx))
	}
	return ctx, func() {}
}

// AddEvent stores an event remotely and returns the correlated UUIDs.
func (c *Client) AddEvent(ctx context.Context, e *misp.Event) ([]string, error) {
	body, err := misp.MarshalWrapped(e)
	if err != nil {
		return nil, err
	}
	var resp struct {
		UUID       string   `json:"uuid"`
		Correlated []string `json:"correlated"`
	}
	if err := c.do(ctx, http.MethodPost, "/events", body, &resp); err != nil {
		return nil, err
	}
	return resp.Correlated, nil
}

// AddEvents stores a batch of events remotely through the group-commit
// endpoint and returns the UUIDs actually stored. Per-event rejections do
// not fail the call; they are reported as a joined error alongside the
// stored UUIDs.
func (c *Client) AddEvents(ctx context.Context, events []*misp.Event) ([]string, error) {
	wrapped := make([]misp.Wrapped, 0, len(events))
	for _, e := range events {
		wrapped = append(wrapped, misp.Wrapped{Event: e})
	}
	body, err := json.Marshal(wrapped)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Stored   []string `json:"stored"`
		Rejected []string `json:"rejected"`
	}
	if err := c.do(ctx, http.MethodPost, "/events/batch", body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Rejected) > 0 {
		return resp.Stored, fmt.Errorf("tip: batch rejected %d event(s): %s",
			len(resp.Rejected), strings.Join(resp.Rejected, "; "))
	}
	return resp.Stored, nil
}

// GetEvent fetches one event by UUID.
func (c *Client) GetEvent(ctx context.Context, uuid string) (*misp.Event, error) {
	var wrapped misp.Wrapped
	if err := c.do(ctx, http.MethodGet, "/events/"+url.PathEscape(uuid), nil, &wrapped); err != nil {
		return nil, err
	}
	if wrapped.Event == nil {
		return nil, fmt.Errorf("tip: empty event payload")
	}
	return wrapped.Event, nil
}

// DeleteEvent removes one event by UUID.
func (c *Client) DeleteEvent(ctx context.Context, uuid string) error {
	return c.do(ctx, http.MethodDelete, "/events/"+url.PathEscape(uuid), nil, nil)
}

// Search runs a query remotely.
func (c *Client) Search(ctx context.Context, q SearchQuery) ([]*misp.Event, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	items, _, err := c.list(ctx, http.MethodPost, "/events/search", body)
	if err != nil {
		return nil, err
	}
	return events(items), nil
}

// ChangesPage fetches one page of the remote's ingest-sequence change
// feed, strictly after afterSeq. It returns the events, the sequence to
// resume the next page after (from the X-CAISP-Seq header) and whether
// more entries remain. The feed is what mesh replication cursors page
// over — see Service.ChangesPage for why it is sound.
func (c *Client) ChangesPage(ctx context.Context, afterSeq uint64, limit int) ([]*misp.Event, uint64, bool, error) {
	items, next, more, err := c.fetchChanges(ctx, afterSeq, limit)
	if err != nil {
		return nil, next, false, err
	}
	return events(items), next, more, nil
}

// fetchChanges issues one change-feed request and decodes the page. The
// wait parameter is sent only when the caller's context asks for it
// (storage.WithWait).
func (c *Client) fetchChanges(ctx context.Context, afterSeq uint64, limit int) ([]misp.ListItem, uint64, bool, error) {
	q := url.Values{}
	if afterSeq > 0 {
		q.Set("after", strconv.FormatUint(afterSeq, 10))
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if wait := storage.WaitFrom(ctx); wait > 0 {
		q.Set("wait", wait.String())
	}
	path := "/events/changes"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	items, hdr, err := c.list(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, afterSeq, false, err
	}
	next, err := strconv.ParseUint(hdr.Get(SeqHeader), 10, 64)
	if err != nil {
		return nil, afterSeq, false, fmt.Errorf("tip: bad %s header %q", SeqHeader, hdr.Get(SeqHeader))
	}
	return items, next, hdr.Get(MoreHeader) == "true", nil
}

// Changes is ChangesPage with deletions included: tombstone items on
// the page decode into event-less storage.Change entries carrying the
// deleted UUID and deletion time. Wire items carry no per-entry
// sequence, so Change.Seq is zero; the page cursor rides in the
// returned next sequence as usual.
func (c *Client) Changes(ctx context.Context, afterSeq uint64, limit int) ([]storage.Change, uint64, bool, error) {
	items, next, more, err := c.fetchChanges(ctx, afterSeq, limit)
	if err != nil {
		return nil, next, false, err
	}
	out := make([]storage.Change, 0, len(items))
	for _, item := range items {
		// Both siblings are decoded wherever present, so a malformed one
		// fails the page whichever kind of item carries it.
		var (
			prov *obs.Provenance
			tomb *wireTombstone
		)
		if err := unmarshalSibling(item.Provenance, &prov); err != nil {
			return nil, afterSeq, false, err
		}
		if err := unmarshalSibling(item.EventTombstone, &tomb); err != nil {
			return nil, afterSeq, false, err
		}
		switch {
		case item.Event != nil:
			out = append(out, storage.Change{UUID: item.Event.UUID, Event: item.Event, Raw: item.EventJSON, Prov: prov})
		case tomb != nil && tomb.UUID != "":
			out = append(out, storage.Change{UUID: tomb.UUID, DeletedAt: time.Unix(tomb.DeletedAt, 0).UTC()})
		}
	}
	return out, next, more, nil
}

// unmarshalSibling decodes a change-page item's raw sibling, when it has
// one, into v.
func unmarshalSibling(raw json.RawMessage, v any) error {
	if raw == nil {
		return nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("tip: decode response: %w", err)
	}
	return nil
}

// Export retrieves one event in the requested format.
func (c *Client) Export(ctx context.Context, uuid, format string) ([]byte, error) {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := c.request(ctx, http.MethodGet,
		"/events/"+url.PathEscape(uuid)+"/export?format="+url.QueryEscape(format), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readResponse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("tip: export %s: %w", uuid, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tip: export status %s: %s", resp.Status, data)
	}
	return data, nil
}

// ImportSTIX uploads a STIX 2.0 bundle for storage; it returns the UUID of
// the stored event.
func (c *Client) ImportSTIX(ctx context.Context, bundle []byte) (string, error) {
	var resp struct {
		UUID string `json:"uuid"`
	}
	if err := c.do(ctx, http.MethodPost, "/import/stix", bundle, &resp); err != nil {
		return "", err
	}
	return resp.UUID, nil
}

// Stats fetches instance counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	data, _, err := c.roundTrip(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("tip: decode response: %w", err)
	}
	return nil
}

// list issues a request whose answer is an event list and decodes it:
// pages in our own server's encoding by misp's one-pass decoder, any
// other by encoding/json. It also returns the response headers
// (pagination state).
func (c *Client) list(ctx context.Context, method, path string, body []byte) ([]misp.ListItem, http.Header, error) {
	data, hdr, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return nil, nil, err
	}
	items, err := misp.DecodeList(data)
	if err != nil {
		return nil, nil, fmt.Errorf("tip: decode response: %w", err)
	}
	return items, hdr, nil
}

// maxResponseBytes bounds a response body a Client will read.
const maxResponseBytes = 32 << 20

// readResponse reads a whole response body. A body over maxResponseBytes
// is an error, not a silently cut (and then undecodable) document.
func readResponse(body io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	if len(data) > maxResponseBytes {
		return nil, fmt.Errorf("response exceeds %d MiB", maxResponseBytes>>20)
	}
	return data, nil
}

// roundTrip issues one request and returns the body and headers of a
// successful response; an error status becomes an error.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, http.Header, error) {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := c.request(ctx, method, path, body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("tip: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := readResponse(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("tip: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return nil, nil, fmt.Errorf("tip: %s %s: %s (status %d)", method, path, apiErr.Error, resp.StatusCode)
		}
		return nil, nil, fmt.Errorf("tip: %s %s: status %d", method, path, resp.StatusCode)
	}
	return data, resp.Header, nil
}

func (c *Client) request(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, reader)
	if err != nil {
		return nil, fmt.Errorf("tip: build request: %w", err)
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", c.apiKey)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// events returns the events a decoded list carries, in order.
func events(items []misp.ListItem) []*misp.Event {
	out := make([]*misp.Event, 0, len(items))
	for _, it := range items {
		if it.Event != nil {
			out = append(out, it.Event)
		}
	}
	return out
}
