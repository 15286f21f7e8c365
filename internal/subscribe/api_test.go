package subscribe

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/wsock"
)

func newTestAPI(t *testing.T, opts ...Option) (*Engine, *httptest.Server) {
	t.Helper()
	e := NewEngine(opts...)
	srv := httptest.NewServer(NewAPI(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAPILifecycle(t *testing.T) {
	e, srv := newTestAPI(t)

	resp := postJSON(t, srv.URL+"/subscriptions",
		`{"client_id": "siem", "pattern": "[domain-name:value = 'evil.example']"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", resp.StatusCode)
	}
	sub := decode[Subscription](t, resp)
	if sub.ID == "" || sub.ClientID != "siem" {
		t.Fatalf("register response = %+v", sub)
	}

	listResp, err := http.Get(srv.URL + "/subscriptions?client=siem")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	if subs := decode[[]Subscription](t, listResp); len(subs) != 1 || subs[0].ID != sub.ID {
		t.Fatalf("list = %+v", subs)
	}

	statsResp, err := http.Get(srv.URL + "/subscriptions/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	if st := decode[Stats](t, statsResp); st.Registered != 1 {
		t.Fatalf("stats = %+v", st)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/subscriptions/"+sub.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", delResp.StatusCode)
	}
	if e.Len() != 0 {
		t.Fatalf("engine still holds %d subscriptions", e.Len())
	}

	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/subscriptions/"+sub.ID, nil)
	delResp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status = %d, want 404", delResp.StatusCode)
	}
}

// TestAPIMatchStream covers the full register → push lifecycle over a real
// HTTP server: WebSocket handshake on /ws/matches, hello greeting, then an
// encode-once match frame when an admitted event satisfies the pattern.
func TestAPIMatchStream(t *testing.T) {
	e, srv := newTestAPI(t)
	mustRegister(t, e, "siem", "[domain-name:value = 'evil.example']")

	conn, err := wsock.Dial("ws" + strings.TrimPrefix(srv.URL, "http") + "/ws/matches")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	_, payload, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	var hello wsHello
	if err := json.Unmarshal(payload, &hello); err != nil || hello.Kind != "hello" || hello.Registered != 1 {
		t.Fatalf("greeting = %q (%v)", payload, err)
	}

	if n := e.EvaluateMISP(ciocEvent(t), StageCIoC, -1); n != 1 {
		t.Fatalf("EvaluateMISP = %d, want 1", n)
	}
	done := make(chan EventFrame, 1)
	go func() {
		if _, payload, err := conn.ReadMessage(); err == nil {
			var frame EventFrame
			if json.Unmarshal(payload, &frame) == nil {
				done <- frame
			}
		}
	}()
	select {
	case frame := <-done:
		if frame.Kind != "match" || len(frame.Matches) != 1 || frame.Matches[0].ClientID != "siem" {
			t.Fatalf("frame = %+v", frame)
		}
		if frame.PushedUnixNano == 0 {
			t.Fatal("frame missing push timestamp")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no match frame on /ws/matches")
	}
}

func TestAPIStructuredErrors(t *testing.T) {
	_, srv := newTestAPI(t, WithMaxPatternBytes(48), WithMaxPerClient(1))

	// Syntax error: 400 with the parser's byte offset.
	resp := postJSON(t, srv.URL+"/subscriptions",
		`{"client_id": "c", "pattern": "[domain-name:value = ]"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("syntax status = %d, want 400", resp.StatusCode)
	}
	if e := decode[apiError](t, resp); e.Position == nil || *e.Position != 21 {
		t.Fatalf("syntax error body = %+v, want position 21", e)
	}

	// Oversize: 400 with length and limit.
	long := strings.Repeat("x", 48)
	resp = postJSON(t, srv.URL+"/subscriptions",
		`{"client_id": "c", "pattern": "[a:b = '`+long+`']"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize status = %d, want 400", resp.StatusCode)
	}
	if e := decode[apiError](t, resp); e.Limit != 48 || e.Length <= 48 {
		t.Fatalf("oversize error body = %+v", e)
	}

	// A body one byte over the cap: 413.
	resp = postJSON(t, srv.URL+"/subscriptions",
		`{"client_id": "c", "pattern": "`+strings.Repeat(" ", maxRegisterBytes-32)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}

	// Missing pattern.
	resp = postJSON(t, srv.URL+"/subscriptions", `{"client_id": "c"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-pattern status = %d, want 400", resp.StatusCode)
	}

	// Quota: second registration for the same client is 429.
	resp = postJSON(t, srv.URL+"/subscriptions", `{"client_id": "c", "pattern": "[a:b = 'x']"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first register status = %d, want 201", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/subscriptions", `{"client_id": "c", "pattern": "[a:b = 'y']"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota status = %d, want 429", resp.StatusCode)
	}
	if e := decode[apiError](t, resp); e.Limit != 1 {
		t.Fatalf("quota error body = %+v", e)
	}
}
