package local

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// This file is the byte-stream ShardLink: the transport that makes a
// sharded run pay — and amortize — a real wire. A streamLink frames cut
// blocks with the codec in codec.go and ships them over any net.Conn
// (TCP in production and in the loopback factory below, net.Pipe in
// tests), with a per-operation read/write deadline so a vanished peer
// surfaces as ErrLinkTimeout instead of a hang. The in-process channel
// link in sharded.go remains the zero-copy fast path; this is the seam's
// real implementation.

// DialRetry dials addr, retrying with bounded exponential backoff until
// total has elapsed. Multi-host deployments constrain no start order —
// a worker may dial the orchestrator before its control listener is up,
// and a peer's data listener may not exist yet when the first link dial
// fires — so connection refusals inside the window are a race, not a
// failure. The last dial error is returned when the window closes.
func DialRetry(network, addr string, total time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(total)
	delay := 50 * time.Millisecond
	var lastErr error
	for remain := total; remain > 0; remain = time.Until(deadline) {
		conn, err := net.DialTimeout(network, addr, min(remain, 3*time.Second))
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if time.Until(deadline) <= delay {
			break
		}
		time.Sleep(delay)
		delay = min(2*delay, time.Second)
	}
	return nil, fmt.Errorf("local: dial %s: gave up after %v: %w", addr, total, lastErr)
}

// StreamLink wraps byte-stream connections as a ShardLink: Send frames
// the block onto send, Recv reads one frame from recv. Either conn may
// be nil for a unidirectional endpoint (a worker process holds the send
// half of one cut pair and the recv half of another); calling the
// missing direction errors. timeout bounds each operation via
// SetWriteDeadline/SetReadDeadline (0 = no deadline).
func StreamLink(send, recv net.Conn, timeout time.Duration) ShardLink {
	return &streamLink{send: send, recv: recv, timeout: timeout}
}

type streamLink struct {
	send    net.Conn
	recv    net.Conn
	timeout time.Duration
	fail    func() // optional: invoked once per failed operation
	wbuf    []byte
	rbuf    []byte
	rblk    CutBlock
}

// failed notes an operation failure with the owning transport (a partial
// frame or unread block desyncs the byte stream, so pooled links must be
// rebuilt) and passes the error through.
func (l *streamLink) failed(err error) error {
	if err != nil && l.fail != nil {
		l.fail()
	}
	return err
}

func (l *streamLink) Send(round int, blk CutBlock) error {
	if l.send == nil {
		return fmt.Errorf("local: stream link has no send connection")
	}
	buf := appendFrame(l.wbuf[:0], round, blk)
	l.wbuf = buf
	if l.timeout > 0 {
		if err := l.send.SetWriteDeadline(time.Now().Add(l.timeout)); err != nil {
			return l.failed(err)
		}
	}
	if _, err := l.send.Write(buf); err != nil {
		return l.failed(fmt.Errorf("local: cut block send: %w", err))
	}
	return nil
}

func (l *streamLink) Recv(round int) (CutBlock, error) {
	if l.recv == nil {
		return CutBlock{}, fmt.Errorf("local: stream link has no recv connection")
	}
	if l.timeout > 0 {
		if err := l.recv.SetReadDeadline(time.Now().Add(l.timeout)); err != nil {
			return CutBlock{}, l.failed(err)
		}
	}
	scratch, err := readFrame(l.recv, round, &l.rblk, l.rbuf)
	l.rbuf = scratch
	if err != nil {
		return CutBlock{}, l.failed(err)
	}
	// The returned block's arrays are link-owned and valid until the next
	// Recv — the receiver installs (copies) them immediately, per the
	// ShardLink contract.
	return l.rblk, nil
}

// errLink is the ShardLink a factory hands out when it could not build a
// working connection: both operations report the construction error.
type errLink struct{ err error }

func (l errLink) Send(int, CutBlock) error   { return l.err }
func (l errLink) Recv(int) (CutBlock, error) { return CutBlock{}, l.err }

// TCPLoopback builds ShardLinks as real TCP connections over 127.0.0.1:
// every cut pair of a sharded run becomes a loopback socket carrying
// framed byte streams, so the full serialize → kernel → deserialize path
// of a multi-machine deployment runs inside one process. Links are
// cached per directed shard pair and reused across runs (rounds are
// strictly ordered, frames self-delimiting); Close tears every
// connection down.
//
// A TCPLoopback serves one Sharded at a time, like the Sharded itself:
// install it with sh.SetTransport(lb.Factory, lb.Close).
type TCPLoopback struct {
	// Timeout is the per-operation link deadline (DefaultLinkTimeout if
	// zero at first use).
	Timeout time.Duration

	mu       sync.Mutex
	ln       net.Listener
	links    map[[2]int]*streamLink
	conns    []net.Conn
	poisoned bool
}

// NewTCPLoopback returns a loopback transport with the given link
// deadline (0 selects DefaultLinkTimeout).
func NewTCPLoopback(timeout time.Duration) *TCPLoopback {
	return &TCPLoopback{Timeout: timeout}
}

// Factory is the LinkFactory: it returns the cached TCP link of the
// (from, to) cut pair, dialing a fresh loopback connection on first use.
// Connection failures surface through the returned link's operations,
// which is how a LinkFactory reports errors.
func (t *TCPLoopback) Factory(from, to int, cut []int32) ShardLink {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Timeout == 0 {
		t.Timeout = DefaultLinkTimeout
	}
	if t.poisoned {
		// Some link of the previous run failed mid-stream (deadline,
		// abort, malformed frame): a stale or partial frame may be
		// sitting in any of the pooled sockets, so reusing them would
		// poison the next run with round-mismatch errors. Rebuild the
		// whole bundle from fresh connections.
		t.closeConnsLocked()
		t.poisoned = false
	}
	key := [2]int{from, to}
	if l, ok := t.links[key]; ok {
		return l
	}
	if t.ln == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return errLink{fmt.Errorf("local: tcp loopback listen: %w", err)}
		}
		t.ln = ln
	}
	type accepted struct {
		conn net.Conn
		err  error
	}
	acceptC := make(chan accepted, 1)
	go func() {
		conn, err := t.ln.Accept()
		acceptC <- accepted{conn, err}
	}()
	client, err := net.DialTimeout("tcp", t.ln.Addr().String(), t.Timeout)
	if err != nil {
		return errLink{fmt.Errorf("local: tcp loopback dial: %w", err)}
	}
	server := <-acceptC
	if server.err != nil {
		client.Close()
		return errLink{fmt.Errorf("local: tcp loopback accept: %w", server.err)}
	}
	if tc, ok := client.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // one small frame per round: latency over batching
	}
	if tc, ok := server.conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	l := &streamLink{send: client, recv: server.conn, timeout: t.Timeout}
	l.fail = func() {
		t.mu.Lock()
		t.poisoned = true
		t.mu.Unlock()
	}
	if t.links == nil {
		t.links = make(map[[2]int]*streamLink)
	}
	t.links[key] = l
	t.conns = append(t.conns, client, server.conn)
	return l
}

// Close shuts the listener and every cached connection.
func (t *TCPLoopback) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
		t.ln = nil
	}
	t.closeConnsLocked()
}

// closeConnsLocked drops the pooled connections and links (the listener
// survives, so the next Factory call rebuilds). Callers hold t.mu.
func (t *TCPLoopback) closeConnsLocked() {
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = nil
	t.links = nil
}

// UseTCPLoopback installs a loopback-TCP transport on the sharded
// executor (deadline from SetLinkTimeout) and returns it; Close on the
// Sharded tears it down.
func (s *Sharded) UseTCPLoopback() *TCPLoopback {
	lb := NewTCPLoopback(s.linkTimeout)
	s.SetTransport(lb.Factory, lb.Close)
	return lb
}
