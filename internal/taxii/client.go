package taxii

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
)

// Client consumes a TAXII 2.1 server.
type Client struct {
	baseURL string
	apiKey  string
	http    *http.Client
}

// NewClient builds a client for the server at baseURL.
func NewClient(baseURL, apiKey string) *Client {
	return &Client{
		baseURL: baseURL,
		apiKey:  apiKey,
		http:    &http.Client{Timeout: 30 * time.Second},
	}
}

// Discover fetches the discovery document.
func (c *Client) Discover() (Discovery, error) {
	var d Discovery
	err := c.get("/taxii2/", nil, &d)
	return d, err
}

// Collections lists the collections of an API root ("caisp" → /caisp/…).
func (c *Client) Collections(apiRoot string) ([]Collection, error) {
	var resp struct {
		Collections []Collection `json:"collections"`
	}
	err := c.get("/"+apiRoot+"/collections/", nil, &resp)
	return resp.Collections, err
}

// ObjectsPage fetches one page of objects.
func (c *Client) ObjectsPage(apiRoot, collectionID string, addedAfter time.Time, limit int, next string) (Envelope, error) {
	params := url.Values{}
	if !addedAfter.IsZero() {
		params.Set("added_after", addedAfter.UTC().Format(time.RFC3339))
	}
	if limit > 0 {
		params.Set("limit", fmt.Sprint(limit))
	}
	if next != "" {
		params.Set("next", next)
	}
	var env Envelope
	err := c.get("/"+apiRoot+"/collections/"+url.PathEscape(collectionID)+"/objects/", params, &env)
	return env, err
}

// AllObjects pages through a collection and decodes every STIX object.
// Objects of unknown type are skipped.
func (c *Client) AllObjects(apiRoot, collectionID string, addedAfter time.Time) ([]stix.Object, error) {
	var out []stix.Object
	next := ""
	for {
		env, err := c.ObjectsPage(apiRoot, collectionID, addedAfter, 100, next)
		if err != nil {
			return nil, err
		}
		for _, raw := range env.Objects {
			obj, err := stix.Unmarshal(raw)
			if err != nil {
				continue
			}
			out = append(out, obj)
		}
		if !env.More {
			return out, nil
		}
		next = env.Next
	}
}

// AddObjects submits STIX objects to a writable collection.
func (c *Client) AddObjects(apiRoot, collectionID string, objs ...stix.Object) (Status, error) {
	env := Envelope{Objects: make([]json.RawMessage, 0, len(objs))}
	for _, o := range objs {
		data, err := stix.Marshal(o)
		if err != nil {
			return Status{}, err
		}
		env.Objects = append(env.Objects, data)
	}
	body, err := json.Marshal(env)
	if err != nil {
		return Status{}, err
	}
	req, err := http.NewRequest(http.MethodPost,
		c.baseURL+"/"+apiRoot+"/collections/"+url.PathEscape(collectionID)+"/objects/",
		bytes.NewReader(body))
	if err != nil {
		return Status{}, err
	}
	c.decorate(req)
	req.Header.Set("Content-Type", ContentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	data, err := readResponse(resp.Body)
	if err != nil {
		return Status{}, fmt.Errorf("taxii: add objects: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return Status{}, fmt.Errorf("taxii: add objects: status %s: %s", resp.Status, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		return Status{}, fmt.Errorf("taxii: decode status: %w", err)
	}
	return st, nil
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

func (c *Client) get(path string, params url.Values, out any) error {
	u := c.baseURL + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("taxii: build request: %w", err)
	}
	c.decorate(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("taxii: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := readResponse(resp.Body)
	if err != nil {
		return fmt.Errorf("taxii: GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("taxii: GET %s: status %d: %s", path, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("taxii: decode response: %w", err)
	}
	return nil
}

func (c *Client) decorate(req *http.Request) {
	req.Header.Set("Accept", ContentType)
	if c.apiKey != "" {
		req.Header.Set("Authorization", c.apiKey)
	}
}
