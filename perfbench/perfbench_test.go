package main

import (
	"encoding/json"
	"os"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"distredge/internal/transport"
)

// sendBacklog pushes n messages through a Coalescer over a connection
// dialled on tr, signalling backlog on all but the last, and returns how
// many messages the listener's side received.
func sendBacklog(t *testing.T, tr transport.Transport, n int) (transport.Conn, int) {
	t.Helper()
	ln, err := tr.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan int, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- -1
			return
		}
		defer c.Close()
		k := 0
		for k < n {
			if _, err := c.Recv(); err != nil {
				break
			}
			k++
		}
		got <- k
	}()
	c, err := tr.Dial(transport.Requester, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	co := transport.NewCoalescer(c)
	for i := 0; i < n; i++ {
		m := transport.Message{Image: uint32(i), Volume: 0, Lo: 0, Hi: 1, Payload: make([]byte, 64)}
		if err := co.Send(m, i < n-1); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case k := <-got:
		return c, k
	case <-time.After(10 * time.Second):
		t.Fatal("receiver did not finish")
		return nil, 0
	}
}

// TestTracedTCPStillCoalesces checks that the traced decorator keeps the
// tcp connection's buffered-send path: under backlog the Coalescer defers
// flushes, so flushes stay well below messages, and every message arrives.
func TestTracedTCPStillCoalesces(t *testing.T) {
	const n = 500
	rec := newTracer()
	c, received := sendBacklog(t, &tracedTransport{inner: transport.NewPooledTCP(nil, nil), rec: rec}, n)
	if _, ok := c.(transport.BatchConn); !ok {
		t.Fatal("traced tcp conn does not expose BatchConn")
	}
	if received != n {
		t.Fatalf("received %d of %d messages", received, n)
	}
	if sent := rec.n(spanBuffered) + rec.n(spanSend); sent != n {
		t.Fatalf("traced %d sends, want %d", sent, n)
	}
	if flushes := rec.n(spanFlush); flushes >= n/2 || rec.n(spanSend) != 0 {
		t.Fatalf("%d flushes and %d plain sends for %d messages: the decorated conn no longer coalesces", flushes, rec.n(spanSend), n)
	}
}

// TestTracedInprocKeepsPlainSend checks the other side of the forwarding
// rule: a connection without BatchConn stays without it once decorated, so
// the Coalescer keeps sending message by message.
func TestTracedInprocKeepsPlainSend(t *testing.T) {
	const n = 50
	rec := newTracer()
	c, received := sendBacklog(t, &tracedTransport{inner: transport.NewInproc(), rec: rec}, n)
	if _, ok := c.(transport.BatchConn); ok {
		t.Fatal("traced inproc conn claims BatchConn")
	}
	if received != n || rec.n(spanSend) != n || rec.n(spanFlush) != 0 {
		t.Fatalf("received %d, traced %d sends and %d flushes; want %d, %d, 0", received, rec.n(spanSend), rec.n(spanFlush), n, n)
	}
}

//go:noinline
func spinForProfile(until time.Time) int {
	x := 0
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestProfileAttribution checks the profile decoder end to end: CPU spent
// in one function is attributed to the metric its rule names.
func TestProfileAttribution(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(time.Now().Add(400 * time.Millisecond))
	name := goruntime.FuncForPC(reflect.ValueOf(spinForProfile).Pointer()).Name()
	shares, err := prof.stop([]profileRule{{FramePrefix: name, Metric: "spin"}})
	if err != nil {
		t.Fatal(err)
	}
	if shares["spin"] < 0.5 {
		t.Fatalf("spin share %.2f, want most of the profile (shares %v)", shares["spin"], shares)
	}
}

func TestWindowedQuantile(t *testing.T) {
	var at []time.Duration
	var vals []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			at = append(at, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
			v := float64(i)
			if w == 2 {
				v += 1000 // one stalled window
			}
			vals = append(vals, v)
		}
	}
	if got := windowedQuantile(at, vals, 5*time.Second, time.Second, 0.99); got != 98 {
		t.Fatalf("windowed p99 = %g, want 98 (the stalled window is outvoted)", got)
	}
}

// TestPlanStreamCoversEveryFleet checks that each pass requests every
// fleet, so every fleet misses exactly once and the hit ratio is fixed.
func TestPlanStreamCoversEveryFleet(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	p := spec.PlanStream
	fleets := len(p.Families) * len(p.BandwidthsMbps)
	for _, seed := range []int64{1, 2, 3} {
		reqs := planStream(p, fleets, seed)
		if len(reqs) != p.RequestsPerPass {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(reqs), p.RequestsPerPass)
		}
		seen := make([]bool, fleets)
		for _, f := range reqs {
			seen[f] = true
		}
		for f, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: fleet %d never requested", seed, f)
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, at the repository
// root, in step with the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	whys := map[string]string{"serve_bulk": spec.ServeBulk.Why, "serve_open": spec.ServeOpen.Why, "plan_stream": spec.PlanStream.Why}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
		if w.Why != whys[w.Name] {
			t.Errorf("BENCHMARK.json why of %s differs from spec.json", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench reports %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
