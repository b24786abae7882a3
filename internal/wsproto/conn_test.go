package wsproto

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipePair builds a connected client/server Conn pair over net.Pipe,
// skipping the handshake (which has its own tests).
func pipePair(t *testing.T) (client, server *Conn) {
	t.Helper()
	cc, sc := net.Pipe()
	client = newConn(cc, nil, true, rand.New(rand.NewSource(7)))
	server = newConn(sc, nil, false, rand.New(rand.NewSource(8)))
	t.Cleanup(func() {
		client.shutdown()
		server.shutdown()
	})
	return client, server
}

func TestConnEcho(t *testing.T) {
	client, server := pipePair(t)
	done := make(chan error, 1)
	go func() {
		op, msg, err := server.ReadMessage()
		if err != nil {
			done <- err
			return
		}
		if op != OpText || string(msg) != "hello tracker" {
			done <- errors.New("server got wrong message")
			return
		}
		done <- server.WriteText("ack")
	}()
	if err := client.WriteText("hello tracker"); err != nil {
		t.Fatal(err)
	}
	op, msg, err := client.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "ack" {
		t.Errorf("client got (%v, %q)", op, msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnFragmentedMessage(t *testing.T) {
	client, server := pipePair(t)
	payload := bytes.Repeat([]byte("0123456789"), 100)
	go func() {
		_ = client.WriteFragmented(OpBinary, payload, 64)
	}()
	op, msg, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(msg, payload) {
		t.Errorf("fragmented reassembly failed: %d bytes, opcode %v", len(msg), op)
	}
}

func TestConnPingPong(t *testing.T) {
	client, server := pipePair(t)
	var mu sync.Mutex
	var gotPing []byte
	server.PingHandler = func(p []byte) {
		mu.Lock()
		gotPing = append([]byte(nil), p...)
		mu.Unlock()
	}
	pong := make(chan []byte, 1)
	client.PongHandler = func(p []byte) { pong <- append([]byte(nil), p...) }

	// Server read loop handles the ping and replies with a pong; a
	// following data message unblocks both sides.
	go func() {
		_, _, _ = server.ReadMessage() // consumes ping, then blocks on data
	}()
	if err := client.Ping([]byte("beat")); err != nil {
		t.Fatal(err)
	}
	// Client reads: first the auto-pong, then nothing else; send a real
	// message from the server to complete the read.
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = server.WriteText("data")
	}()
	op, msg, err := client.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "data" {
		t.Errorf("got (%v, %q)", op, msg)
	}
	select {
	case p := <-pong:
		if string(p) != "beat" {
			t.Errorf("pong payload = %q", p)
		}
	case <-time.After(time.Second):
		t.Error("no pong received")
	}
	mu.Lock()
	defer mu.Unlock()
	if string(gotPing) != "beat" {
		t.Errorf("server ping handler got %q", gotPing)
	}
}

func TestConnCloseHandshake(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		_ = client.CloseWithCode(CloseGoingAway, "navigating away")
	}()
	_, _, err := server.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CloseError", err)
	}
	if ce.Code != CloseGoingAway || ce.Reason != "navigating away" {
		t.Errorf("close = %+v", ce)
	}
	if !IsCloseError(err, CloseGoingAway) {
		t.Error("IsCloseError(CloseGoingAway) = false")
	}
	if IsCloseError(err, CloseNormal) {
		t.Error("IsCloseError(CloseNormal) = true for going-away close")
	}
}

func TestConnWriteAfterClose(t *testing.T) {
	client, server := pipePair(t)
	go func() { _, _, _ = server.ReadMessage() }()
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.WriteText("late"); err != ErrConnClosed {
		t.Errorf("write after close: got %v, want ErrConnClosed", err)
	}
}

func TestConnRejectsUnmaskedClientFrame(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	server := newConn(sc, nil, false, rand.New(rand.NewSource(9)))
	defer server.shutdown()
	go func() {
		// Write an unmasked frame from the "client" side: a protocol
		// violation the server must reject.
		_ = WriteFrame(cc, &Frame{FIN: true, Opcode: OpText, Payload: []byte("x")})
		// Drain whatever the server sends back (close frame).
		io.Copy(io.Discard, cc)
	}()
	_, _, err := server.ReadMessage()
	if err != ErrUnmaskedClient {
		t.Errorf("got %v, want ErrUnmaskedClient", err)
	}
}

// TestServerConnNeedsNoRng pins the RNG contract of newConn: server
// conns take none and write unmasked frames (RFC 6455 §5.1), while a
// client conn without an explicit RNG is a bug and panics.
func TestServerConnNeedsNoRng(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	server := newConn(sc, nil, false, nil)
	defer server.shutdown()
	go func() { _ = server.WriteText("unmasked") }()
	f, err := ReadFrame(cc, DefaultMaxMessageSize)
	if err != nil {
		t.Fatal(err)
	}
	if f.Masked || string(f.Payload) != "unmasked" {
		t.Errorf("server frame: masked=%v payload=%q, want unmasked %q", f.Masked, f.Payload, "unmasked")
	}

	defer func() {
		if recover() == nil {
			t.Error("client newConn with a nil rng did not panic")
		}
	}()
	newConn(cc, nil, true, nil)
}

func TestConnRejectsInvalidUTF8Text(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		_ = client.WriteMessage(OpText, []byte{0xFF, 0xFE, 0xFD})
		io.Copy(io.Discard, client.conn)
	}()
	_, _, err := server.ReadMessage()
	if err != ErrInvalidUTF8 {
		t.Errorf("got %v, want ErrInvalidUTF8", err)
	}
}

func TestConnRejectsStrayContinuation(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		_ = client.writeFrame(&Frame{FIN: true, Opcode: OpContinuation, Payload: []byte("x")})
		io.Copy(io.Discard, client.conn)
	}()
	_, _, err := server.ReadMessage()
	if err != ErrUnexpectedContinue {
		t.Errorf("got %v, want ErrUnexpectedContinue", err)
	}
}

func TestConnRejectsInterleavedDataFrames(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		_ = client.writeFrame(&Frame{FIN: false, Opcode: OpText, Payload: []byte("a")})
		_ = client.writeFrame(&Frame{FIN: true, Opcode: OpText, Payload: []byte("b")})
		io.Copy(io.Discard, client.conn)
	}()
	_, _, err := server.ReadMessage()
	if err != ErrExpectedContinue {
		t.Errorf("got %v, want ErrExpectedContinue", err)
	}
}

func TestConnMessageSizeLimit(t *testing.T) {
	client, server := pipePair(t)
	server.SetMaxMessageSize(100)
	errc := make(chan error, 1)
	go func() {
		_, _, err := server.ReadMessage()
		errc <- err
	}()
	go func() {
		// Under-limit frames accumulate via fragmentation past the
		// limit; the write may block or fail once the server drops the
		// connection, so it runs on its own goroutine.
		_ = client.WriteFragmented(OpBinary, make([]byte, 300), 50)
	}()
	go io.Copy(io.Discard, client.conn)
	select {
	case err := <-errc:
		if err != ErrFrameTooLarge {
			t.Errorf("got %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not enforce message size limit")
	}
}

// TestDialAndUpgradeOverTCP exercises the full client/server handshake and
// data exchange over a real loopback TCP connection through net/http.
func TestDialAndUpgradeOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := conn.WriteMessage(op, append([]byte("echo:"), msg...)); err != nil {
				return
			}
		}
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	d := Dialer{
		ResolveAddr: func(hostport string) string { return ln.Addr().String() },
		Header:      http.Header{"Origin": {"http://pub.example"}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, hdr, err := d.Dial(ctx, "ws://tracker.example/echo")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if hdr.Get("Upgrade") == "" {
		t.Error("missing Upgrade in response headers")
	}
	for i := 0; i < 3; i++ {
		if err := conn.WriteText("ping-data"); err != nil {
			t.Fatal(err)
		}
		op, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != OpText || string(msg) != "echo:ping-data" {
			t.Errorf("round %d: got (%v, %q)", i, op, msg)
		}
	}
}

func TestDialRejectsNonWSURL(t *testing.T) {
	_, _, err := Dial(context.Background(), "http://example.com/")
	if err == nil || !strings.Contains(err.Error(), "not a ws/wss URL") {
		t.Errorf("got %v", err)
	}
}

// TestAcceptRaw exercises the raw-listener server path (Accept) including
// subprotocol negotiation.
func TestAcceptRaw(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		conn, hs, err := Accept(nc, func(offered []string) string {
			for _, p := range offered {
				if p == "tracking-v2" {
					return p
				}
			}
			return ""
		})
		if err != nil {
			return
		}
		defer conn.Close()
		_ = conn.WriteText("host=" + hs.Host)
		_, _, _ = conn.ReadMessage() // wait for close
	}()

	d := Dialer{
		ResolveAddr: func(string) string { return ln.Addr().String() },
		Header:      http.Header{"Sec-WebSocket-Protocol": {"tracking-v1, tracking-v2"}},
	}
	conn, _, err := d.Dial(context.Background(), "ws://rt.example/feed")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Subprotocol != "tracking-v2" {
		t.Errorf("subprotocol = %q", conn.Subprotocol)
	}
	_, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "host=rt.example" {
		t.Errorf("server saw host %q", msg)
	}
}
