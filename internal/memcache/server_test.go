package memcache

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake:0" }

// tempAcceptErr satisfies net.Error with Temporary() == true (EMFILE-style).
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: too many open files" }
func (tempAcceptErr) Temporary() bool { return true }
func (tempAcceptErr) Timeout() bool   { return false }

// scriptedListener plays back a fixed sequence of Accept results, then
// blocks until closed.
type scriptedListener struct {
	mu     sync.Mutex
	steps  []func() (net.Conn, error)
	closed chan struct{}
	once   sync.Once
}

func newScriptedListener(steps ...func() (net.Conn, error)) *scriptedListener {
	return &scriptedListener{steps: steps, closed: make(chan struct{})}
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.steps) == 0 {
		l.mu.Unlock()
		<-l.closed
		return nil, net.ErrClosed
	}
	step := l.steps[0]
	l.steps = l.steps[1:]
	l.mu.Unlock()
	return step()
}

func (l *scriptedListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *scriptedListener) Addr() net.Addr { return fakeAddr{} }

// TestAcceptRetriesTemporaryErrors injects EMFILE-style errors before a
// real connection: the accept loop must back off, retry, and still serve
// the connection that follows. Before the fix the first error killed the
// listener forever.
func TestAcceptRetriesTemporaryErrors(t *testing.T) {
	_, c := newCache(t, Options{})
	client, server := net.Pipe()
	ln := newScriptedListener(
		func() (net.Conn, error) { return nil, tempAcceptErr{} },
		func() (net.Conn, error) { return nil, tempAcceptErr{} },
		func() (net.Conn, error) { return server, nil },
	)
	srv := NewServerOn(c, ln, 4)
	defer srv.Close()

	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(client, "set k 0 0 1\r\nv\r\nquit\r\n"); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(client).ReadString('\n')
	if err != nil {
		t.Fatalf("read reply after accept errors: %v", err)
	}
	if strings.TrimSpace(line) != "STORED" {
		t.Fatalf("reply = %q", line)
	}
	if got := srv.AcceptRetries.Load(); got != 2 {
		t.Fatalf("AcceptRetries = %d, want 2", got)
	}
}

// TestAcceptExitsOnPermanentError: a non-temporary error ends the accept
// loop; later scripted connections are never touched.
func TestAcceptExitsOnPermanentError(t *testing.T) {
	_, c := newCache(t, Options{})
	accepted := make(chan struct{})
	ln := newScriptedListener(
		func() (net.Conn, error) { return nil, fmt.Errorf("accept: fatal") },
		func() (net.Conn, error) { close(accepted); <-make(chan struct{}); return nil, nil },
	)
	srv := NewServerOn(c, ln, 4)
	defer srv.Close()

	select {
	case <-accepted:
		t.Fatal("accept loop survived a permanent error")
	case <-time.After(100 * time.Millisecond):
	}
	if got := srv.AcceptRetries.Load(); got != 0 {
		t.Fatalf("AcceptRetries = %d, want 0", got)
	}
}

// TestCloseDuringBackoff: Close while the loop sleeps in backoff must not
// hang (the backoff select watches done).
func TestCloseDuringBackoff(t *testing.T) {
	_, c := newCache(t, Options{})
	steps := make([]func() (net.Conn, error), 64)
	for i := range steps {
		steps[i] = func() (net.Conn, error) { return nil, tempAcceptErr{} }
	}
	srv := NewServerOn(c, newScriptedListener(steps...), 4)
	time.Sleep(20 * time.Millisecond) // let it enter backoff
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung during accept backoff")
	}
}

// withAcceptHook runs f before every Accept of the server's accept loop.
func withAcceptHook(f func()) ServerOption {
	return func(s *Server) { s.acceptHook = f }
}

// TestCloseServesAcceptBacklog pins the shutdown window that used to drop
// clients: the kernel has completed the client's connection and holds its
// pipelined request, but the accept loop has not taken it yet when Close
// begins. The hook parks the loop until Close has started, so the
// interleaving is forced rather than hoped for. The client must get its
// reply, not a reset.
func TestCloseServesAcceptBacklog(t *testing.T) {
	_, c := newCache(t, Options{})
	gate := make(chan struct{})
	srv, err := NewServer(c, "127.0.0.1:0", 4, withAcceptHook(func() { <-gate }),
		WithDrainTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	client, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := fmt.Fprintf(client, "set k 0 0 1\r\nv\r\nquit\r\n"); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	<-srv.done // Close has begun; the connection is still in the backlog
	close(gate)

	client.SetDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(client).ReadString('\n')
	if err != nil {
		t.Fatalf("backlogged client lost its reply: %v", err)
	}
	if strings.TrimSpace(line) != "STORED" {
		t.Fatalf("reply = %q, want STORED", line)
	}
	<-closed
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("cache holds %d items (err=%v), want 1", n, err)
	}
}
