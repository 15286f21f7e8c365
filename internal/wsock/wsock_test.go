package wsock

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// writeBinary sends one binary message. The platform only sends text, so
// the binary framing path is reached through the unexported writer.
func writeBinary(c *Conn, payload []byte) error {
	return c.write(frame{fin: true, opcode: OpBinary, payload: payload})
}

// echoServer upgrades requests and echoes every data message back.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Accept(w, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		defer conn.Close()
		for {
			op, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			var werr error
			if op == OpText {
				werr = conn.WriteText(payload)
			} else {
				werr = writeBinary(conn, payload)
			}
			if werr != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

func TestEchoTextAndBinary(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.WriteText([]byte("hello dashboard")); err != nil {
		t.Fatal(err)
	}
	op, payload, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(payload) != "hello dashboard" {
		t.Fatalf("echo = %v %q", op, payload)
	}

	bin := []byte{0x00, 0xff, 0x10, 0x80}
	if err := writeBinary(conn, bin); err != nil {
		t.Fatal(err)
	}
	op, payload, err = conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(payload, bin) {
		t.Fatalf("binary echo = %v %v", op, payload)
	}
}

func TestEchoLargeMessage(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// >64 KiB forces the 8-byte extended length path.
	big := bytes.Repeat([]byte("x"), 70000)
	if err := conn.WriteText(big); err != nil {
		t.Fatal(err)
	}
	_, payload, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != len(big) {
		t.Fatalf("len = %d, want %d", len(payload), len(big))
	}
}

func TestEchoQuick(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := func(payload []byte) bool {
		if err := writeBinary(conn, payload); err != nil {
			return false
		}
		_, got, err := conn.ReadMessage()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPingAnsweredTransparently(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server echo loop calls ReadMessage, which must answer our ping
	// without surfacing it; a following text echo proves liveness.
	if err := conn.Ping([]byte("are-you-there")); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteText([]byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	_, payload, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "after-ping" {
		t.Fatalf("echo after ping = %q", payload)
	}
}

func TestCloseHandshake(t *testing.T) {
	srv := echoServer(t)
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteText([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
}

func TestServerSeesClientClose(t *testing.T) {
	done := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Accept(w, r)
		if err != nil {
			done <- err
			return
		}
		_, _, err = conn.ReadMessage()
		done <- err
	}))
	defer srv.Close()
	conn, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("server read error = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never observed close")
	}
}

func TestAcceptRejectsPlainRequests(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Accept(w, r); err != nil {
			http.Error(w, "nope", http.StatusBadRequest)
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestDialRejectsBadScheme(t *testing.T) {
	if _, err := Dial("http://example.invalid"); err == nil {
		t.Fatal("http scheme accepted")
	}
	if _, err := Dial("::bad::"); err == nil {
		t.Fatal("garbage url accepted")
	}
}

func TestAcceptKeyKnownVector(t *testing.T) {
	// RFC 6455 §1.3 example.
	got := acceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	const want = "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("acceptKey = %q, want %q", got, want)
	}
}

func TestFragmentedMessageReassembled(t *testing.T) {
	// Drive the codec directly: write continuation frames into a pipe-like
	// buffer and read them back as one message.
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{fin: false, opcode: OpText, payload: []byte("hel")}, false); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frame{fin: false, opcode: OpContinuation, payload: []byte("lo ")}, false); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, frame{fin: true, opcode: OpContinuation, payload: []byte("world")}, false); err != nil {
		t.Fatal(err)
	}
	conn := connFromBuffer(&buf)
	op, payload, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(payload) != "hello world" {
		t.Fatalf("reassembled = %v %q", op, payload)
	}
}

func TestContinuationWithoutStartRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{fin: true, opcode: OpContinuation, payload: []byte("x")}, false); err != nil {
		t.Fatal(err)
	}
	conn := connFromBuffer(&buf)
	if _, _, err := conn.ReadMessage(); err == nil {
		t.Fatal("orphan continuation accepted")
	}
}

func TestMaskedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []byte("masked payload")
	if err := writeFrame(&buf, frame{fin: true, opcode: OpText, payload: want}, true); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.payload, want) {
		t.Fatalf("unmasked = %q, want %q", f.payload, want)
	}
}

func TestHubBroadcast(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Accept(w, r)
		if err != nil {
			return
		}
		hub.Add(conn)
		// Server side reads to keep the connection alive (answers pings,
		// observes close).
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				hub.Remove(conn)
				return
			}
		}
	}))
	defer srv.Close()

	var conns []*Conn
	for i := 0; i < 3; i++ {
		c, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	waitFor(t, func() bool { return hub.Len() == 3 })

	if n := hub.Broadcast([]byte(`{"rioc":"new"}`)); n != 3 {
		t.Fatalf("Broadcast routed to %d, want 3", n)
	}
	for _, c := range conns {
		_, payload, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if string(payload) != `{"rioc":"new"}` {
			t.Fatalf("payload = %q", payload)
		}
	}
	// Writes complete on per-client writer goroutines; the delivery counter
	// trails the client-side reads by a scheduling instant.
	waitFor(t, func() bool { return hub.Sent() == 3 })
	hub.CloseAll()
	if hub.Len() != 0 {
		t.Fatalf("Len after CloseAll = %d", hub.Len())
	}
}

func TestHubEvictsDeadConnections(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Accept(w, r)
		if err != nil {
			return
		}
		hub.Add(conn)
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	c, err := Dial(wsURL(srv))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hub.Len() == 1 })
	c.Close()
	// After the client closes, the server write path fails eventually; one
	// or two broadcasts flush it out.
	waitFor(t, func() bool {
		hub.Broadcast([]byte("ping"))
		return hub.Len() == 0
	})
}

func TestHubConcurrentBroadcast(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	srv := echoHubServer(t, hub)
	var conns []*Conn
	for i := 0; i < 4; i++ {
		c, err := Dial(wsURL(srv))
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		go func(c *Conn) {
			for {
				if _, _, err := c.ReadMessage(); err != nil {
					return
				}
			}
		}(c)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	waitFor(t, func() bool { return hub.Len() == 4 })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				hub.Broadcast([]byte("concurrent"))
			}
		}()
	}
	wg.Wait()
}

func echoHubServer(t *testing.T, hub *Hub) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Accept(w, r)
		if err != nil {
			return
		}
		hub.Add(conn)
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				hub.Remove(conn)
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// connFromBuffer builds a read-only Conn over pre-encoded frames; tests
// using it never trigger writes.
func connFromBuffer(buf *bytes.Buffer) *Conn {
	return &Conn{
		rw: bufio.NewReadWriter(bufio.NewReader(buf), bufio.NewWriter(buf)),
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
