package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP transport: one rank per OS process, length-prefixed float32
// frames over per-peer persistent connections. Rendezvous is
// environment-driven (DEVIGO_RANKS / DEVIGO_RANK / DEVIGO_HOSTFILE) so
// a launcher — cmd/devigo-run's -transport tcp mode, or any external
// process manager — only has to agree on a hostfile. Ranks dial every
// lower-ranked peer with exponential-backoff retry and accept from
// every higher-ranked one; a connect or receive that outlives the
// configured deadline fails with an error instead of deadlocking, so a
// hung or dead peer takes the world down cleanly.

// Environment variables of the TCP rendezvous protocol.
const (
	// RanksEnvVar is the world size (an integer >= 1).
	RanksEnvVar = "DEVIGO_RANKS"
	// RankEnvVar is the calling process's rank in [0, DEVIGO_RANKS).
	RankEnvVar = "DEVIGO_RANK"
	// HostfileEnvVar is the path of the hostfile: one host:port per
	// line in rank order ('#' comments and blank lines ignored).
	HostfileEnvVar = "DEVIGO_HOSTFILE"
	// TCPTimeoutEnvVar overrides the connect/receive deadline (a Go
	// duration, e.g. "30s"; default 60s). Past the deadline a pending
	// dial or receive fails with an error naming the silent peer.
	TCPTimeoutEnvVar = "DEVIGO_TCP_TIMEOUT"
)

// defaultTCPTimeout bounds dials, receives and sends when neither
// TCPConfig.Timeout nor DEVIGO_TCP_TIMEOUT says otherwise.
const defaultTCPTimeout = 60 * time.Second

// tcpMagic opens every connection handshake; the version byte guards
// against mixed-build worlds.
const tcpMagic = 0x44564730 // "DVG0"

// maxFrameElems caps a frame's element count (1 Gi floats = 4 GiB);
// anything larger is a corrupt header.
const maxFrameElems = 1 << 30

// TCPConfig configures one rank of a TCP world.
type TCPConfig struct {
	// Rank is this process's rank.
	Rank int
	// Addrs lists every rank's listen address (host:port) in rank
	// order; len(Addrs) is the world size.
	Addrs []string
	// Timeout bounds connection establishment per peer and every
	// receive/send (0 = DEVIGO_TCP_TIMEOUT, then 60s). It is the
	// hung-peer detector: a receive that waits longer fails cleanly.
	Timeout time.Duration
	// Listener optionally supplies a pre-bound listener for
	// Addrs[Rank] (the in-process test harness binds port 0 listeners
	// first so no port is ever raced); nil means listen on Addrs[Rank].
	Listener net.Listener
}

// TCPTransport is a Transport over per-peer persistent TCP connections.
type TCPTransport struct {
	rank    int
	size    int
	timeout time.Duration

	peers []*tcpPeer // indexed by rank, nil at self
	inbox []*mailbox // indexed by source rank
	ln    net.Listener

	stats counters

	closed atomic.Bool
	wg     sync.WaitGroup
}

// tcpPeer is one established connection plus its serialized writer.
type tcpPeer struct {
	mu      sync.Mutex
	conn    net.Conn
	w       *bufio.Writer
	scratch []byte
}

// NewTCPTransport establishes the full peer mesh for one rank and
// returns once every connection is up: the rank listens on
// cfg.Addrs[cfg.Rank], accepts a connection from every higher rank and
// dials every lower rank (with exponential backoff while the peer's
// listener comes up). The call fails — rather than hangs — if the mesh
// is not complete within cfg.Timeout.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	n := len(cfg.Addrs)
	if n < 1 {
		return nil, fmt.Errorf("mpi: tcp: empty address list")
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("mpi: tcp: rank %d outside [0, %d)", cfg.Rank, n)
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		var err error
		if timeout, err = envTCPTimeout(); err != nil {
			if cfg.Listener != nil {
				cfg.Listener.Close()
			}
			return nil, err
		}
	}
	t := &TCPTransport{
		rank:    cfg.Rank,
		size:    n,
		timeout: timeout,
		peers:   make([]*tcpPeer, n),
		inbox:   make([]*mailbox, n),
	}
	for s := 0; s < n; s++ {
		t.inbox[s] = newMailbox(&t.stats)
	}
	if n == 1 {
		return t, nil
	}

	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("mpi: tcp: rank %d listen %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
		}
	}
	t.ln = ln
	deadline := time.Now().Add(timeout)

	type dialed struct {
		rank int
		peer *tcpPeer
		err  error
	}
	results := make(chan dialed, n)
	// Accept one connection per higher rank; the dialer's handshake
	// identifies it.
	expect := n - 1 - cfg.Rank
	go func() {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		for i := 0; i < expect; i++ {
			conn, err := ln.Accept()
			if err != nil {
				results <- dialed{err: fmt.Errorf("mpi: tcp: rank %d accept: %w (peer hung or never started?)", cfg.Rank, err)}
				return
			}
			src, err := readHandshake(conn, n)
			if err != nil {
				conn.Close()
				results <- dialed{err: fmt.Errorf("mpi: tcp: rank %d handshake: %w", cfg.Rank, err)}
				return
			}
			results <- dialed{rank: src, peer: newTCPPeer(conn)}
		}
	}()
	// Dial every lower rank concurrently, retrying with exponential
	// backoff until its listener answers or the deadline expires.
	for p := 0; p < cfg.Rank; p++ {
		go func(p int) {
			conn, err := dialRetry(cfg.Addrs[p], deadline)
			if err != nil {
				results <- dialed{err: fmt.Errorf("mpi: tcp: rank %d dial rank %d (%s): %w", cfg.Rank, p, cfg.Addrs[p], err)}
				return
			}
			if err := writeHandshake(conn, cfg.Rank, n); err != nil {
				conn.Close()
				results <- dialed{err: fmt.Errorf("mpi: tcp: rank %d handshake with rank %d: %w", cfg.Rank, p, err)}
				return
			}
			results <- dialed{rank: p, peer: newTCPPeer(conn)}
		}(p)
	}
	for have := 0; have < n-1; have++ {
		d := <-results
		if d.err != nil {
			t.Close()
			return nil, d.err
		}
		if d.peer == nil || d.rank == cfg.Rank || d.rank < 0 || d.rank >= n || t.peers[d.rank] != nil {
			t.Close()
			return nil, fmt.Errorf("mpi: tcp: rank %d: duplicate or invalid peer rank %d", cfg.Rank, d.rank)
		}
		t.peers[d.rank] = d.peer
	}
	// Mesh complete: no further connections are expected.
	ln.Close()
	t.ln = nil
	for src, p := range t.peers {
		if p == nil {
			continue
		}
		t.wg.Add(1)
		go t.readLoop(src, p)
	}
	return t, nil
}

// TCPFromEnv builds the transport from the rendezvous environment
// (DEVIGO_RANKS, DEVIGO_RANK, DEVIGO_HOSTFILE, DEVIGO_TCP_TIMEOUT) —
// the entry point of launcher-spawned rank processes.
func TCPFromEnv() (*TCPTransport, error) {
	size, err := envInt(RanksEnvVar, 1)
	if err != nil {
		return nil, err
	}
	rank, err := envInt(RankEnvVar, 0)
	if err != nil {
		return nil, err
	}
	if rank >= size {
		return nil, fmt.Errorf("mpi: tcp: $%s=%d outside [0, $%s=%d)", RankEnvVar, rank, RanksEnvVar, size)
	}
	hostfile := os.Getenv(HostfileEnvVar)
	if hostfile == "" {
		return nil, fmt.Errorf("mpi: tcp: $%s is not set (want the path of a hostfile with one host:port per rank)", HostfileEnvVar)
	}
	addrs, err := ReadHostfile(hostfile)
	if err != nil {
		return nil, err
	}
	if len(addrs) < size {
		return nil, fmt.Errorf("mpi: tcp: hostfile %s lists %d address(es), want >= $%s=%d", hostfile, len(addrs), RanksEnvVar, size)
	}
	return NewTCPTransport(TCPConfig{Rank: rank, Addrs: addrs[:size]})
}

// ReadHostfile parses a hostfile: one host:port per line in rank order,
// with '#' comments and blank lines ignored.
func ReadHostfile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mpi: tcp: hostfile: %w", err)
	}
	var addrs []string
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(line); err != nil {
			return nil, fmt.Errorf("mpi: tcp: hostfile %s line %d: %q is not host:port: %w", path, i+1, line, err)
		}
		addrs = append(addrs, line)
	}
	return addrs, nil
}

// envInt parses a required integer environment variable >= min.
func envInt(name string, min int) (int, error) {
	s := strings.TrimSpace(os.Getenv(name))
	if s == "" {
		return 0, fmt.Errorf("mpi: tcp: $%s is not set (want an integer >= %d)", name, min)
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < min {
		return 0, fmt.Errorf("mpi: tcp: bad $%s=%q (want an integer >= %d)", name, s, min)
	}
	return v, nil
}

// envTCPTimeout resolves the connect/receive deadline from the
// environment: unset is the 60 s default, and a value that is not a
// positive Go duration is an error naming it.
func envTCPTimeout() (time.Duration, error) {
	s := strings.TrimSpace(os.Getenv(TCPTimeoutEnvVar))
	if s == "" {
		return defaultTCPTimeout, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("mpi: tcp: bad $%s=%q (want a positive Go duration such as 30s)", TCPTimeoutEnvVar, s)
	}
	return d, nil
}

// dialRetry dials addr with exponential backoff (10ms doubling to
// 500ms) until the deadline.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	backoff := 10 * time.Millisecond
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("connect deadline exceeded")
			}
			return nil, lastErr
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn, nil
		}
		lastErr = err
		sleep := backoff
		if sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

func newTCPPeer(conn net.Conn) *tcpPeer {
	return &tcpPeer{conn: conn, w: bufio.NewWriterSize(conn, 1<<16)}
}

// writeHandshake identifies the dialer: magic, rank, world size.
func writeHandshake(conn net.Conn, rank, size int) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], tcpMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(rank))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(size))
	_, err := conn.Write(hdr[:])
	return err
}

// readHandshake validates the dialer's identity against this world.
func readHandshake(conn net.Conn, size int) (int, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != tcpMagic {
		return 0, fmt.Errorf("bad magic %#x (mixed builds or a stranger on the port?)", m)
	}
	rank := int(binary.LittleEndian.Uint32(hdr[4:]))
	peerSize := int(binary.LittleEndian.Uint32(hdr[8:]))
	if peerSize != size {
		return 0, fmt.Errorf("peer rank %d believes the world has %d ranks, this rank %d", rank, peerSize, size)
	}
	return rank, nil
}

// Rank returns the calling rank.
func (t *TCPTransport) Rank() int { return t.rank }

// Size returns the world size.
func (t *TCPTransport) Size() int { return t.size }

// Send serializes data into one length-prefixed frame — {u32 tag, u32
// count, count little-endian float32s} — and writes it to the peer's
// connection under the write deadline. Serialization happens before
// Send returns, which *is* the payload snapshot the Transport contract
// promises.
func (t *TCPTransport) Send(dst, tag int, data []float32) error {
	if t.closed.Load() {
		return fmt.Errorf("transport closed")
	}
	p := t.peers[dst]
	if p == nil {
		return fmt.Errorf("no connection to rank %d", dst)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	need := 8 + 4*len(data)
	if cap(p.scratch) < need {
		p.scratch = make([]byte, need)
	}
	buf := p.scratch[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(tag))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(data)))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[8+4*i:], math.Float32bits(v))
	}
	p.conn.SetWriteDeadline(time.Now().Add(t.timeout))
	if _, err := p.w.Write(buf); err != nil {
		return fmt.Errorf("write to rank %d: %w", dst, err)
	}
	if err := p.w.Flush(); err != nil {
		return fmt.Errorf("write to rank %d: %w", dst, err)
	}
	t.stats.sent(len(data))
	return nil
}

// readLoop drains one peer connection into the per-source inbox until
// the connection dies or the transport closes; a read failure poisons
// the inbox so pending receives fail instead of waiting out their
// deadline. Each frame is decoded, one chunk of the connection's byte
// scratch at a time, into a payload recycled from the inbox.
func (t *TCPTransport) readLoop(src int, p *tcpPeer) {
	defer t.wg.Done()
	r := bufio.NewReaderSize(p.conn, 1<<16)
	in := t.inbox[src]
	raw := make([]byte, 1<<16)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.failInbox(src, err)
			return
		}
		tag := int(binary.LittleEndian.Uint32(hdr[0:]))
		count := binary.LittleEndian.Uint32(hdr[4:])
		if count > maxFrameElems {
			t.failInbox(src, fmt.Errorf("corrupt frame header (count %d)", count))
			return
		}
		data := in.payload(int(count))
		for done := 0; done < len(data); {
			chunk := raw[:4*min(len(data)-done, len(raw)/4)]
			if _, err := io.ReadFull(r, chunk); err != nil {
				t.failInbox(src, err)
				return
			}
			for i := 0; i < len(chunk); i += 4 {
				data[done] = math.Float32frombits(binary.LittleEndian.Uint32(chunk[i:]))
				done++
			}
		}
		in.push(tag, data)
	}
}

// failInbox poisons the inbox of one source (quietly once the transport
// is shutting down — a reset connection during teardown is expected).
func (t *TCPTransport) failInbox(src int, err error) {
	if t.closed.Load() {
		err = fmt.Errorf("transport closed")
	} else {
		err = peerFailure{fmt.Errorf("connection to rank %d lost: %w", src, err)}
	}
	t.inbox[src].fail(err)
}

// Recv blocks for the oldest matching message under the receive
// deadline and copies it into buf; a peer that stays silent past it
// produces an error naming the peer, the tag and the deadline — the
// clean-failure half of the hung-peer guarantee. It parks at once, with
// no poll (see pollBound).
func (t *TCPTransport) Recv(src, tag int, buf []float32) (int, error) {
	n, err := t.inbox[src].pop(tag, 0, t.timeout, buf)
	if err != nil {
		return 0, fmt.Errorf("tcp recv from rank %d tag %d: %w", src, tag, err)
	}
	return n, nil
}

// Stats returns the calling rank's accounting.
func (t *TCPTransport) Stats() Stats { return t.stats.snapshot() }

// Close tears down every connection; pending receives fail.
func (t *TCPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	for _, in := range t.inbox {
		in.fail(fmt.Errorf("transport closed"))
	}
	t.wg.Wait()
	return nil
}
