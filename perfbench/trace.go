package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"distredge/internal/runtime"
	"distredge/internal/transport"
)

// Span kinds, one per layer boundary the benchmark wraps.
const (
	spanGateway  = iota // one gateway request: enqueue (or due time) to Result
	spanSubmit          // one Cluster.Submit: scatter to assembled result
	spanSend            // one Conn.Send (frames and flushes one message)
	spanBuffered        // one BatchConn.SendBuffered (frames without flushing)
	spanFlush           // one BatchConn.Flush
	spanPlan            // one System.PlanCached call
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"gateway", "submit", "send", "send_buffered", "flush", "plan"}

// span is one timed call at a layer boundary. ID is the gateway request
// sequence number, the image id a wire message carries, or the plan
// request's index in the stream; times are nanoseconds since the traced
// phase began.
type span struct {
	Kind    uint8
	Outcome uint8 // plan spans: 1 hit, 2 warm, 3 cold; others 0
	Bytes   int32
	ID      uint64
	StartNs int64
	DurNs   int64
}

// maxSpans bounds the spans kept in memory per traced phase (8 MiB at 32
// bytes each). Aggregates keep counting past it; only the dump is capped.
const maxSpans = 1 << 18

// tracer keeps spans in memory and per-kind counters. Record is safe for
// concurrent use: slots are claimed with an atomic index, and the buffer
// is read only after every recording goroutine has stopped.
type tracer struct {
	t0    time.Time
	spans []span
	next  atomic.Int64

	count [numSpanKinds]atomic.Int64
	durNs [numSpanKinds]atomic.Int64
	bytes [numSpanKinds]atomic.Int64

	mu        sync.Mutex
	submitDur []float64 // guarded by mu; Submit durations, ms
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, maxSpans)}
}

// record stores one span of duration d that started at start.
func (t *tracer) record(kind uint8, id uint64, start time.Time, d time.Duration, bytes int, outcome uint8) {
	t.count[kind].Add(1)
	t.durNs[kind].Add(int64(d))
	t.bytes[kind].Add(int64(bytes))
	if i := t.next.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{Kind: kind, ID: id, StartNs: int64(start.Sub(t.t0)), DurNs: int64(d), Bytes: int32(bytes), Outcome: outcome}
	}
}

func (t *tracer) n(kind int) int64 { return t.count[kind].Load() }

func (t *tracer) meanMS(kind int) float64 {
	n := t.count[kind].Load()
	if n == 0 {
		return 0
	}
	return float64(t.durNs[kind].Load()) / float64(n) / 1e6
}

// kept returns the spans held in memory.
func (t *tracer) kept() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// dump writes the kept spans as CSV (kind,id,start_ns,dur_ns,bytes,outcome)
// to path, creating its directory.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,id,start_ns,dur_ns,bytes,outcome")
	for _, s := range t.kept() {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", spanNames[s.Kind], s.ID, s.StartNs, s.DurNs, s.Bytes, s.Outcome)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpSpans writes a traced run's spans under .bench_build/perfbench/, in
// the checkout the benchmark runs from.
func dumpSpans(rec *tracer, workload string, seed int64) error {
	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.csv", workload, seed))
	if err := rec.dump(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// timedBackend is the gateway.Backend the traced serving phase installs:
// it times every Cluster.Submit.
type timedBackend struct {
	c   *runtime.Cluster
	rec *tracer
	seq atomic.Uint64
}

func (b *timedBackend) Submit() error {
	id := b.seq.Add(1)
	start := time.Now()
	err := b.c.Submit()
	d := time.Since(start)
	b.rec.record(spanSubmit, id, start, d, 0, 0)
	b.rec.mu.Lock()
	b.rec.submitDur = append(b.rec.submitDur, msOf(d))
	b.rec.mu.Unlock()
	return err
}

// tracedTransport decorates a transport so every data message sent over
// its connections is timed. It forwards the optional capabilities the
// runtime probes for — BufferSizer, PayloadPool and WireCodec on the
// transport, BatchConn on connections — so the decorated stack still
// sizes its buffers, recycles payloads and coalesces flushes exactly like
// the undecorated one.
type tracedTransport struct {
	inner transport.Transport
	rec   *tracer
}

func (t *tracedTransport) Name() string { return t.inner.Name() + "+traced" }

func (t *tracedTransport) Listen(self int) (transport.Listener, error) {
	ln, err := t.inner.Listen(self)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln, t: t}, nil
}

func (t *tracedTransport) Dial(self int, addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(self, addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *tracedTransport) SetBufferHint(maxChunkBytes int) {
	transport.SetBufferHint(t.inner, maxChunkBytes)
}

func (t *tracedTransport) GetPayload(n int) []byte { return transport.GetPayload(t.inner, n) }
func (t *tracedTransport) PutPayload(b []byte)     { transport.RecyclePayload(t.inner, b) }

// WireCodec reports the inner transport's codec (nil when it has none).
func (t *tracedTransport) WireCodec() transport.Codec {
	if wc, ok := t.inner.(transport.WireCodec); ok {
		return wc.WireCodec()
	}
	return nil
}

// wrap decorates one connection, exposing BatchConn only when the inner
// connection has it: a Coalescer over a conn without it must keep
// degenerating to plain Send.
func (t *tracedTransport) wrap(c transport.Conn) transport.Conn {
	tc := &tracedConn{Conn: c, rec: t.rec}
	if bc, ok := c.(transport.BatchConn); ok {
		return &tracedBatchConn{tracedConn: tc, bc: bc}
	}
	return tc
}

type tracedListener struct {
	transport.Listener
	t *tracedTransport
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c), nil
}

// tracedConn times Send. Control messages (heartbeats) pass untimed so the
// per-image message counts do not depend on run length.
type tracedConn struct {
	transport.Conn
	rec *tracer
}

func (c *tracedConn) Send(m transport.Message) error {
	if m.Volume < transport.VolInput {
		return c.Conn.Send(m)
	}
	// The payload belongs to the transport once Send is called: read its
	// size and image id first.
	id, n := uint64(m.Image), len(m.Payload)
	start := time.Now()
	err := c.Conn.Send(m)
	c.rec.record(spanSend, id, start, time.Since(start), n, 0)
	return err
}

type tracedBatchConn struct {
	*tracedConn
	bc transport.BatchConn
}

func (c *tracedBatchConn) SendBuffered(m transport.Message) error {
	id, n := uint64(m.Image), len(m.Payload)
	start := time.Now()
	err := c.bc.SendBuffered(m)
	c.rec.record(spanBuffered, id, start, time.Since(start), n, 0)
	return err
}

func (c *tracedBatchConn) Flush() error {
	start := time.Now()
	err := c.bc.Flush()
	c.rec.record(spanFlush, 0, start, time.Since(start), 0, 0)
	return err
}
