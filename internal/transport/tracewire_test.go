package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/snapml/snap/internal/trace"
)

// dialRaw opens a raw TCP connection to p and completes the hello
// handshake as neighbor id, returning the socket for hand-crafted
// frames. The peer must already know the id as a neighbor address (via
// Connect) or the frames will be withheld from GatherStream.
func dialRaw(t *testing.T, p *Peer, id int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(id))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// registerNeighbor teaches p that id exists (address only; the raw test
// socket provides the connection) so expectedConns includes it.
func registerNeighbor(p *Peer, id int) {
	p.mu.Lock()
	p.addrs[id] = "127.0.0.1:1" // never dialed in these tests
	p.mu.Unlock()
}

// TestOldFormatFrameAgainstTracedPeer: a frame in the pre-trace wire
// layout ([len][round][payload], no flag bit, no block) must decode
// cleanly on a peer that has tracing enabled — old senders keep working
// against new receivers.
func TestOldFormatFrameAgainstTracedPeer(t *testing.T) {
	p, err := NewPeer(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetTracer(trace.New(trace.Config{Node: 0}))
	registerNeighbor(p, 1)
	conn := dialRaw(t, p, 1)
	waitFor(t, 2*time.Second, "raw conn registered", func() bool { return p.Healthy(1) })

	payload := []byte("old-format")
	var header [8]byte
	binary.BigEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[4:8], 3) // round 3, no trace flag
	if _, err := conn.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := gather(p, 3, 2*time.Second)
	if !bytes.Equal(got[1], payload) {
		t.Fatalf("gathered %q, want %q", got[1], payload)
	}
	// No trace context existed, so no receive observation may have been
	// recorded for the round.
	tr := p.tracer.Load()
	tr.StartRound(3, time.Now())
	tr.EndRound(3, time.Now())
	if d, ok := tr.Digest(3); ok && len(d.Recvs) != 0 {
		t.Fatalf("untraced frame produced a recv observation: %+v", d.Recvs)
	}
}

// TestTracelessNewPeerEmitsOldFormat: with no tracer attached, Send must
// produce bytes identical to the pre-trace wire format, so a new binary
// with tracing off interoperates with old peers in both directions.
func TestTracelessNewPeerEmitsOldFormat(t *testing.T) {
	p, err := NewPeer(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	registerNeighbor(p, 1)
	conn := dialRaw(t, p, 1)
	waitFor(t, 2*time.Second, "raw conn registered", func() bool { return p.Healthy(1) })

	payload := []byte("hello-old-world")
	if err := p.Send(1, 7, payload); err != nil {
		t.Fatal(err)
	}
	var header [8]byte
	if _, err := io.ReadFull(conn, header[:]); err != nil {
		t.Fatal(err)
	}
	if size := binary.BigEndian.Uint32(header[:4]); size != uint32(len(payload)) {
		t.Fatalf("size field = %d, want %d (trace block must be absent)", size, len(payload))
	}
	if round := binary.BigEndian.Uint32(header[4:8]); round != 7 {
		t.Fatalf("round field = %#x, want 7 (no flag bits)", round)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
}

// TestTracedFrameWireLayout: with a tracer attached the frame must carry
// the flag bit, a parseable trace block whose context identifies the
// sender and round, and a size field covering block + payload.
func TestTracedFrameWireLayout(t *testing.T) {
	p, err := NewPeer(5, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetTracer(trace.New(trace.Config{Node: 5}))
	registerNeighbor(p, 1)
	conn := dialRaw(t, p, 1)
	waitFor(t, 2*time.Second, "raw conn registered", func() bool { return p.Healthy(1) })

	payload := []byte("traced")
	before := time.Now().UnixNano()
	if err := p.Send(1, 9, payload); err != nil {
		t.Fatal(err)
	}
	after := time.Now().UnixNano()

	var header [8]byte
	if _, err := io.ReadFull(conn, header[:]); err != nil {
		t.Fatal(err)
	}
	size := binary.BigEndian.Uint32(header[:4])
	rawRound := binary.BigEndian.Uint32(header[4:8])
	if rawRound&frameFlagTrace == 0 {
		t.Fatalf("trace flag missing: round field %#x", rawRound)
	}
	if got := rawRound &^ frameFlagTrace; got != 9 {
		t.Fatalf("round = %d, want 9", got)
	}
	if size != uint32(len(payload)+trace.BlockBytes) {
		t.Fatalf("size = %d, want %d", size, len(payload)+trace.BlockBytes)
	}
	block := make([]byte, trace.BlockBytes)
	if _, err := io.ReadFull(conn, block); err != nil {
		t.Fatal(err)
	}
	ctx, err := trace.ParseBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Node != 5 || ctx.Round != 9 || ctx.TraceID != trace.ID(5, 9) {
		t.Fatalf("trace context = %+v", ctx)
	}
	if ctx.SendUnixNanos < before || ctx.SendUnixNanos > after {
		t.Fatalf("send timestamp %d outside [%d, %d]", ctx.SendUnixNanos, before, after)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	if p.FramesSent() != 1 || p.BytesSent() != int64(len(payload)) {
		t.Fatalf("frames=%d bytes=%d, want 1/%d (trace block excluded from BytesSent)",
			p.FramesSent(), p.BytesSent(), len(payload))
	}
}

// TestTracedPeersEndToEnd: two traced peers exchange a round; each
// receiver must surface the payload unchanged and record a receive
// observation carrying the sender's trace context.
func TestTracedPeersEndToEnd(t *testing.T) {
	peers := startPeers(t, 2)
	tracers := make([]*trace.Tracer, 2)
	for i, p := range peers {
		tracers[i] = trace.New(trace.Config{Node: i})
		p.SetTracer(tracers[i])
	}
	if err := peers[0].Send(1, 4, []byte("zero->one")); err != nil {
		t.Fatal(err)
	}
	if err := peers[1].Send(0, 4, []byte("one->zero")); err != nil {
		t.Fatal(err)
	}
	got0 := gather(peers[0], 4, 2*time.Second)
	got1 := gather(peers[1], 4, 2*time.Second)
	if string(got0[1]) != "one->zero" || string(got1[0]) != "zero->one" {
		t.Fatalf("payloads corrupted: %q / %q", got0[1], got1[0])
	}
	for i, tr := range tracers {
		tr.StartRound(4, time.Now())
		tr.EndRound(4, time.Now())
		d, ok := tr.Digest(4)
		if !ok || len(d.Recvs) != 1 {
			t.Fatalf("peer %d: recvs = %+v (ok=%v)", i, d.Recvs, ok)
		}
		r := d.Recvs[0]
		if r.From != 1-i || r.TraceID != trace.ID(1-i, 4) {
			t.Fatalf("peer %d recv = %+v", i, r)
		}
		if r.SendUnixNanos <= 0 || r.RecvUnixNanos < r.SendUnixNanos-int64(time.Second) {
			t.Fatalf("peer %d recv timestamps implausible: %+v", i, r)
		}
	}
}

// TestTracedToTracelessPeer: a traced sender against a traceless new
// receiver — the receiver understands the flag bit, strips the block,
// and hands up the clean payload even with no tracer attached.
func TestTracedToTracelessPeer(t *testing.T) {
	peers := startPeers(t, 2)
	peers[0].SetTracer(trace.New(trace.Config{Node: 0}))
	if err := peers[0].Send(1, 2, []byte("traced-to-plain")); err != nil {
		t.Fatal(err)
	}
	got := gather(peers[1], 2, 2*time.Second)
	if string(got[0]) != "traced-to-plain" {
		t.Fatalf("gathered %q", got[0])
	}
}

// TestTracedFrameTooSmallRejected: a flagged frame whose size field is
// smaller than the trace block is malformed; the read loop must drop the
// connection rather than misparse.
func TestTracedFrameTooSmallRejected(t *testing.T) {
	p, err := NewPeer(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetTracer(trace.New(trace.Config{Node: 0}))
	registerNeighbor(p, 1)
	conn := dialRaw(t, p, 1)
	waitFor(t, 2*time.Second, "raw conn registered", func() bool { return p.Healthy(1) })

	var header [8]byte
	binary.BigEndian.PutUint32(header[:4], trace.BlockBytes-1)
	binary.BigEndian.PutUint32(header[4:8], uint32(0)|frameFlagTrace)
	if _, err := conn.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, trace.BlockBytes-1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "malformed conn evicted", func() bool { return !p.Healthy(1) })
}
