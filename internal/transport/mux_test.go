package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMuxSharesOneConnection pins the point of the mux protocol: any number
// of calls to one peer ride a single TCP connection.
func TestMuxSharesOneConnection(t *testing.T) {
	ta, tb := NewTCP(), NewTCP()
	defer ta.Close()
	defer tb.Close()
	tb.Register("srv", echoHandler("srv"))
	addrB, err := tb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer("srv", addrB.String())

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				body := []byte(strings.Repeat("b", 1024*(g+1)))
				reply, err := ta.Call("cli", "srv", Message{Type: "echo", Key: key, Body: body})
				if err != nil {
					errs <- err
					return
				}
				if reply.Key != key || len(reply.Body) != len(body) {
					errs <- fmt.Errorf("reply mismatch for %s", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	tb.mu.Lock()
	conns := len(tb.accepted)
	tb.mu.Unlock()
	if conns != 1 {
		t.Errorf("64 calls used %d connections, want 1 multiplexed connection", conns)
	}
}

// TestTCPClosesNonHelloConn pins the server's handshake rule: a raw client
// whose first frame is a plain request rather than the mux hello gets its
// connection closed without a reply, while mux clients on the same
// listener keep working before, during and after.
func TestTCPClosesNonHelloConn(t *testing.T) {
	ta, tb := NewTCP(), NewTCP()
	defer ta.Close()
	defer tb.Close()
	tb.Register("srv", echoHandler("srv"))
	addrB, err := tb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer("srv", addrB.String())
	call := func(key string) {
		t.Helper()
		reply, err := ta.Call("cli", "srv", Message{Type: "echo", Key: key})
		if err != nil || reply.Key != key {
			t.Fatalf("mux call %s = %+v, %v", key, reply, err)
		}
	}
	call("before")

	raw, err := net.Dial("tcp", addrB.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := writeFrame(raw, appendRequest(nil, "raw", "srv", Message{Type: "echo", Key: "plain"})); err != nil {
		t.Fatal(err)
	}
	call("during")
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := readFrame(raw)
	if err == nil {
		t.Fatalf("plain first frame was answered (%d bytes), want the connection closed", len(reply))
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server left the non-hello connection open: %v", err)
	}
	call("after")
}

// TestMuxNonAckHandshakeIsDialFailure pins the client's handshake rule: a
// peer that answers the hello with anything but the ack is unreachable, and
// the failure arms the reconnect backoff like a refused dial.
func TestMuxNonAckHandshakeIsDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := readFrame(conn); err == nil {
				_ = writeFrame(conn, appendReply(nil, Message{}, fmt.Errorf("malformed frame")))
			}
			conn.Close()
		}
	}()
	tr := NewTCP()
	defer tr.Close()
	tr.AddPeer("foreign", ln.Addr().String())
	if _, err := tr.Call("cli", "foreign", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("non-ack handshake = %v, want ErrUnreachable", err)
	}
	tr.muxMu.Lock()
	e := tr.mux[ln.Addr().String()]
	tr.muxMu.Unlock()
	e.mu.Lock()
	backoff, gated, mc := e.backoff, time.Now().Before(e.nextDialAt), e.mc
	e.mu.Unlock()
	if backoff == 0 || !gated || mc != nil {
		t.Errorf("after non-ack: backoff=%v gated=%v conn=%v, want backoff armed and no connection", backoff, gated, mc)
	}
}

// TestMuxCallTimeoutLeavesConnUsable pins per-call timeouts: a slow handler
// times out its own call without killing the shared connection, and the
// late reply for the abandoned ID is dropped rather than crossing wires.
func TestMuxCallTimeoutLeavesConnUsable(t *testing.T) {
	ta, tb := NewTCP(), NewTCP()
	defer ta.Close()
	defer tb.Close()
	ta.CallTimeout = 50 * time.Millisecond
	release := make(chan struct{})
	tb.Register("srv", func(from string, msg Message) (Message, error) {
		if msg.Key == "slow" {
			<-release
		}
		return Message{Key: msg.Key}, nil
	})
	addrB, err := tb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer("srv", addrB.String())

	if _, err := ta.Call("cli", "srv", Message{Key: "slow"}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("slow call should time out as unreachable, got %v", err)
	}
	close(release) // let the abandoned handler finish and send its late reply
	for i := 0; i < 3; i++ {
		reply, err := ta.Call("cli", "srv", Message{Key: fmt.Sprintf("fast%d", i)})
		if err != nil {
			t.Fatalf("call after timeout: %v", err)
		}
		if reply.Key != fmt.Sprintf("fast%d", i) {
			t.Errorf("late reply crossed wires: got %+v", reply)
		}
	}

	tb.mu.Lock()
	conns := len(tb.accepted)
	tb.mu.Unlock()
	if conns != 1 {
		t.Errorf("timeout should not kill the connection, server sees %d conns", conns)
	}
}

// TestMuxDialBackoff pins reconnect backoff: calls to a dead peer fail fast
// once the backoff gate is set instead of re-dialing per call.
func TestMuxDialBackoff(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	tr.DialTimeout = 100 * time.Millisecond
	// A listener that is closed immediately gives us an address that
	// refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	tr.AddPeer("dead", addr)

	if _, err := tr.Call("cli", "dead", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dead peer = %v", err)
	}
	tr.muxMu.Lock()
	e := tr.mux[addr]
	tr.muxMu.Unlock()
	if e == nil {
		t.Fatal("no mux entry for dead peer")
	}
	e.mu.Lock()
	backoff, gated := e.backoff, time.Now().Before(e.nextDialAt)
	e.mu.Unlock()
	if backoff == 0 || !gated {
		t.Errorf("dial failure should set backoff, got backoff=%v gated=%v", backoff, gated)
	}
	// Within the backoff window the call still reports unreachable (without
	// burning another dial — pinned by the gate check above).
	if _, err := tr.Call("cli", "dead", Message{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("gated call = %v", err)
	}
}

// TestMuxFrameHelpers pins the frame-level encoding the two sides agree on.
func TestMuxFrameHelpers(t *testing.T) {
	if !isMuxHello(helloFrame()) || isMuxHello(helloAckFrame()) {
		t.Error("hello frame classification broken")
	}
	if !isMuxHelloAck(helloAckFrame()) || isMuxHelloAck(helloFrame()) {
		t.Error("helloAck frame classification broken")
	}
	// A bare request payload must never classify as a hello: its first
	// byte is uvarint(len(from)) which is nonzero for any named node.
	plain := appendRequest(nil, "node-a", "node-b", Message{Type: "echo"})
	if isMuxHello(plain) {
		t.Error("bare request classified as mux hello")
	}
	frame := appendMuxHeader(nil, muxReq, 12345)
	frame = append(frame, []byte("payload")...)
	kind, id, inner, ok := parseMuxFrame(frame)
	if !ok || kind != muxReq || id != 12345 || string(inner) != "payload" {
		t.Errorf("parseMuxFrame = %v %v %q %v", kind, id, inner, ok)
	}
	if _, _, _, ok := parseMuxFrame([]byte{muxMagic}); ok {
		t.Error("truncated frame should not parse")
	}
	if _, _, _, ok := parseMuxFrame(plain); ok {
		t.Error("bare request payload should not parse as mux frame")
	}
}
