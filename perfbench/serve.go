package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"distredge"
	"distredge/internal/gateway"
	"distredge/internal/runtime"
)

// pinnedServing is the fleet and plan both serving workloads serve: the
// pinned plan file, loaded with LoadPlan, so no planner change can move
// the serving numbers.
type pinnedServing struct {
	sys     *distredge.System
	plan    *distredge.Plan
	predIPS float64 // simulated IPS of the plan
}

// loadPinned loads the pinned plan and checks it simulates at the golden
// IPS.
func loadPinned(p pinnedSpec, chk *checks) (*pinnedServing, error) {
	provs, err := distredge.ParseProviders(p.Providers)
	if err != nil {
		return nil, err
	}
	sys, err := distredge.New(p.Model, provs, distredge.WithSeed(p.PlanSeed))
	if err != nil {
		return nil, err
	}
	plan, err := sys.LoadPlan(pinnedPlanJSON)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", p.File, err)
	}
	rep, err := sys.Evaluate(plan, p.SimImages)
	if err != nil {
		return nil, err
	}
	chk.expect(math.Abs(rep.IPS-p.GoldenSimIPS) < 0.005,
		"pinned plan simulates at %.4f IPS, golden %.2f", rep.IPS, p.GoldenSimIPS)
	return &pinnedServing{sys: sys, plan: plan, predIPS: rep.IPS}, nil
}

// deploy starts one cluster of the pinned plan over a fresh transport
// (traced when rec is non-nil).
func (ps *pinnedServing) deploy(w serveSpec, rec *tracer) (*runtime.Cluster, error) {
	tr, err := distredge.ParseTransport(w.Transport)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		tr = &tracedTransport{inner: tr, rec: rec}
	}
	return ps.sys.Deploy(ps.plan, runtime.Options{
		TimeScale:  w.TimeScale,
		BytesScale: w.BytesScale,
		Transport:  tr,
	})
}

// tenantConfigs builds the workload's tenants: weights and deadlines cycle
// through the spec's per-weight lists (none for serve_bulk).
func tenantConfigs(w serveSpec) []gateway.TenantConfig {
	out := make([]gateway.TenantConfig, w.Tenants)
	for i := range out {
		out[i].Name = fmt.Sprintf("t%02d", i)
		if len(w.Weights) > 0 {
			k := i % len(w.Weights)
			out[i].Weight = w.Weights[k]
			out[i].Deadline = time.Duration(w.DeadlineMS[k] * float64(time.Millisecond))
		}
	}
	return out
}

// setupTime measures deploy-to-first-result: deploy a cluster, start a
// gateway over it, and serve one request. It repeats the measurement and
// returns the median, in seconds.
func (ps *pinnedServing) setupTime(w serveSpec) (float64, error) {
	tenants := tenantConfigs(w)
	var times []float64
	for i := 0; i < w.SetupRepeats; i++ {
		start := time.Now()
		c, err := ps.deploy(w, nil)
		if err != nil {
			return 0, err
		}
		g, err := gateway.New(c, gateway.Config{Window: w.Window, Policy: w.Policy}, tenants)
		if err != nil {
			c.Close()
			return 0, err
		}
		var r gateway.Result
		ch, err := g.Enqueue(tenants[0].Name)
		if err == nil {
			r = <-ch
			err = r.Err
		}
		d := time.Since(start)
		g.Close()
		c.Close()
		if err != nil {
			return 0, fmt.Errorf("setup request: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// Request outcomes, as the gateway reports them.
const (
	outOK = iota
	outLate
	outExpired
	outFailed
	numOutcomes
)

func classify(r gateway.Result) int {
	switch {
	case r.Err == nil:
		return outOK
	case errors.Is(r.Err, gateway.ErrDeadlineExceeded) && r.LatencyMS > 0:
		return outLate
	case errors.Is(r.Err, gateway.ErrDeadlineExceeded):
		return outExpired
	default:
		return outFailed
	}
}

// servingRun is one deployment with its gateway, and the outcome ledger the
// benchmark keeps for it independently of the gateway's own counters.
type servingRun struct {
	w       serveSpec
	c       *runtime.Cluster
	g       *gateway.Gateway
	tenants []gateway.TenantConfig
	rec     *tracer // nil when untraced

	enqueued []int              // per tenant
	outcomes [][numOutcomes]int // per tenant
}

func (ps *pinnedServing) start(w serveSpec, rec *tracer) (*servingRun, error) {
	c, err := ps.deploy(w, rec)
	if err != nil {
		return nil, err
	}
	tenants := tenantConfigs(w)
	var be gateway.Backend = c
	if rec != nil {
		be = &timedBackend{c: c, rec: rec}
	}
	g, err := gateway.New(be, gateway.Config{Window: w.Window, Policy: w.Policy}, tenants)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &servingRun{
		w: w, c: c, g: g, tenants: tenants, rec: rec,
		enqueued: make([]int, len(tenants)),
		outcomes: make([][numOutcomes]int, len(tenants)),
	}, nil
}

func (s *servingRun) enqueue(t int) (<-chan gateway.Result, error) {
	ch, err := s.g.Enqueue(s.tenants[t].Name)
	if err != nil {
		return nil, err
	}
	s.enqueued[t]++
	return ch, nil
}

// settle records one request's outcome.
func (s *servingRun) settle(t int, r gateway.Result) int {
	o := classify(r)
	s.outcomes[t][o]++
	return o
}

// finish drains the gateway and checks the run's outputs: every enqueued
// request ended in exactly one outcome that agrees with gateway.Summary,
// the providers executed exactly steps-per-image steps for every image the
// backend served, and the cluster holds no error. It closes the cluster.
func (s *servingRun) finish(stepsPerImage int, chk *checks) (served int, stats []runtime.ProviderStats) {
	s.g.Close()
	defer s.c.Close()
	sum := s.g.Summary()
	for t, ts := range sum {
		o := s.outcomes[t]
		settled := o[outOK] + o[outLate] + o[outExpired] + o[outFailed]
		chk.expect(settled == s.enqueued[t] && ts.Enqueued == s.enqueued[t],
			"tenant %s: enqueued %d, gateway counted %d, outcomes settled %d", ts.Tenant, s.enqueued[t], ts.Enqueued, settled)
		chk.expect(ts.Completed == o[outOK] && ts.Late == o[outLate] && ts.Expired == o[outExpired] && ts.Failed == o[outFailed],
			"tenant %s: gateway summary ok/late/expired/failed %d/%d/%d/%d, results %d/%d/%d/%d",
			ts.Tenant, ts.Completed, ts.Late, ts.Expired, ts.Failed, o[outOK], o[outLate], o[outExpired], o[outFailed])
		served += ts.Completed + ts.Late
	}
	stats = s.c.Stats()
	steps := 0
	for _, ps := range stats {
		steps += ps.StepsExecuted
	}
	chk.expect(steps == served*stepsPerImage,
		"providers executed %d steps for %d served images, want %d per image", steps, served, stepsPerImage)
	if err := s.c.Err(); err != nil {
		chk.fail("cluster error at end of run: %v", err)
	}
	return served, stats
}

// statWindow is the sub-window every percentile and rate of a phase is
// taken over before the median across sub-windows is reported.
const statWindow = time.Second

// window collects the requests that completed inside a measurement window.
type window struct {
	at         []time.Duration // completion time from the window's start
	latMS      []float64       // served requests, gateway enqueue-to-completion
	served     int
	attempted  int
	misses     int // failed, expired or late
	begin, end procSnap
}

func (w *window) cpuMSPerOp() float64 {
	if w.served == 0 {
		return 0
	}
	return msOf(w.begin.until(w.end).cpu) / float64(w.served)
}

// throughput is the median over sub-windows of completed requests per
// second.
func (w *window) throughput() float64 {
	wall := w.begin.until(w.end).wall
	n := int(wall / statWindow)
	if n < 1 {
		return float64(w.served) / wall.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range w.at {
		if k := int(t / statWindow); k < n {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= statWindow.Seconds()
	}
	return median(counts)
}

func (w *window) pct(q float64) float64 {
	return windowedQuantile(w.at, w.latMS, w.begin.until(w.end).wall, statWindow, q)
}

// closedLoop keeps `outstanding` requests in flight from one generator,
// picking each request's tenant from rng. It runs for warmup, then
// measures for dur, then stops issuing and drains. Results are read in
// issue order: a request that completes before an older one waits in its
// buffered channel, so at most `outstanding` are ever enqueued.
func (s *servingRun) closedLoop(rng *rand.Rand, outstanding int, warmup, dur time.Duration) (*window, error) {
	type pending struct {
		ch     <-chan gateway.Result
		tenant int
		seq    uint64
		enq    time.Time
	}
	var (
		ring       []pending
		seq        uint64
		w          window
		start      = time.Now()
		tBegin     = start.Add(warmup)
		tEnd       = tBegin.Add(dur)
		begun, end bool
	)
	issue := func() error {
		t := rng.Intn(len(s.tenants))
		enq := time.Now()
		ch, err := s.enqueue(t)
		if err != nil {
			return err
		}
		seq++
		ring = append(ring, pending{ch: ch, tenant: t, seq: seq, enq: enq})
		return nil
	}
	for i := 0; i < outstanding; i++ {
		if err := issue(); err != nil {
			return nil, err
		}
	}
	for len(ring) > 0 {
		p := ring[0]
		ring = ring[1:]
		r := <-p.ch
		now := time.Now()
		if !begun && !now.Before(tBegin) {
			begun, w.begin = true, snapProc()
		}
		if !end && !now.Before(tEnd) {
			end, w.end = true, snapProc()
		}
		o := s.settle(p.tenant, r)
		if s.rec != nil {
			s.rec.record(spanGateway, p.seq, p.enq, time.Duration(r.LatencyMS*float64(time.Millisecond)), 0, 0)
		}
		if begun && !end {
			w.attempted++
			if o == outOK {
				w.served++
				w.at = append(w.at, now.Sub(w.begin.at))
				w.latMS = append(w.latMS, r.LatencyMS)
			} else {
				w.misses++
			}
		}
		if !end {
			if err := issue(); err != nil {
				return nil, err
			}
		}
	}
	return &w, nil
}

// openResult is one open-loop phase at a fixed offered rate.
type openResult struct {
	rate      float64
	dur       time.Duration
	generated int
	served    int             // completed, in time or late
	misses    int             // failed, expired or late
	at        []time.Duration // every request's due time from the phase start
	latMS     []float64       // every request from its due time; +Inf for failed or expired
	enqLatMS  []float64       // served requests, gateway enqueue-to-completion
	maxLagMS  float64         // how late the generator enqueued, at worst
	depthAt   []time.Duration // when the backlog was sampled, from the phase start
	depth     []float64       // requests generated but not yet settled, per sample
	proc      procDelta
}

// depthSamples is how many times per phase the generator samples the
// requests outstanding.
const depthSamples = 100

// backlog is the median of the requests outstanding sampled in [from, to)
// of the phase (fractions of its length): the median of several samples,
// so a stall at one sampling instant does not read as a grown queue.
func (r *openResult) backlog(from, to float64) float64 {
	var xs []float64
	for i, t := range r.depthAt {
		if f := float64(t) / float64(r.dur); f >= from && f < to {
			xs = append(xs, r.depth[i])
		}
	}
	return median(xs)
}

// pct is the median over sub-windows of the q-quantile latency, with
// failed and expired requests counted as infinitely late.
func (r *openResult) pct(q float64) float64 {
	return windowedQuantile(r.at, r.latMS, r.dur, statWindow, q)
}

// openLoop offers Poisson arrivals at `rate` for dur from one generator
// goroutine, each to a tenant drawn from rng; the calling goroutine
// collects results. Latency is timed from each request's due time, so a
// stall that delays later sends counts against them.
func (s *servingRun) openLoop(rng *rand.Rand, rate float64, dur time.Duration) (*openResult, error) {
	type item struct {
		ch       <-chan gateway.Result
		tenant   int
		seq      uint64
		due, enq time.Time
	}
	// Items queue between generator and collector for at most one
	// deadline; 1<<16 covers any ladder rate times the longest deadline.
	items := make(chan item, 1<<16)
	var settled atomic.Int64
	res := &openResult{rate: rate, dur: dur}
	var genErr error
	begin := snapProc()
	start := time.Now()
	go func() {
		defer close(items)
		due, stop := start, start.Add(dur)
		step := dur / depthSamples
		var nextSample time.Duration
		for seq := uint64(1); ; seq++ {
			due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
			if !due.Before(stop) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if off := due.Sub(start); off >= nextSample {
				res.depthAt = append(res.depthAt, off)
				res.depth = append(res.depth, float64(res.generated-int(settled.Load())))
				nextSample = off - off%step + step
			}
			t := rng.Intn(len(s.tenants))
			enq := time.Now()
			if lag := msOf(enq.Sub(due)); lag > res.maxLagMS {
				res.maxLagMS = lag
			}
			ch, err := s.enqueue(t)
			if err != nil {
				genErr = err
				return
			}
			res.generated++
			items <- item{ch: ch, tenant: t, seq: seq, due: due, enq: enq}
		}
	}()
	for it := range items {
		r := <-it.ch
		o := s.settle(it.tenant, r)
		settled.Add(1)
		lat := msOf(it.enq.Sub(it.due)) + r.LatencyMS
		if s.rec != nil {
			s.rec.record(spanGateway, it.seq, it.due, time.Duration(lat*float64(time.Millisecond)), 0, 0)
		}
		if o != outOK {
			res.misses++
		}
		if o == outOK || o == outLate {
			res.served++
			res.enqLatMS = append(res.enqLatMS, r.LatencyMS)
		} else {
			lat = math.Inf(1)
		}
		res.at = append(res.at, it.due.Sub(start))
		res.latMS = append(res.latMS, lat)
	}
	res.proc = begin.until(snapProc())
	if genErr != nil {
		return nil, genErr
	}
	return res, nil
}

// servePhase is one deployment's measured phase and what the run's output
// checks left behind.
type servePhase struct {
	run    *servingRun
	served int // backend-served images over the whole deployment
	stats  []runtime.ProviderStats
	shares map[string]float64 // CPU-profile layer shares (traced phases)
}

// phase runs body on a fresh deployment. With rec non-nil the deployment
// is traced and a CPU profile covers body.
func (ps *pinnedServing) phase(spec *benchSpec, w serveSpec, rec *tracer, chk *checks, body func(*servingRun) error) (*servePhase, error) {
	run, err := ps.start(w, rec)
	if err != nil {
		return nil, err
	}
	var prof *cpuProfile
	if rec != nil {
		if prof, err = startCPUProfile(); err != nil {
			run.finish(spec.Pinned.StepsPerImage, chk)
			return nil, err
		}
	}
	bodyErr := body(run)
	ph := &servePhase{run: run}
	if prof != nil {
		if ph.shares, err = prof.stop(spec.ProfileRules); err != nil && bodyErr == nil {
			bodyErr = err
		}
	}
	ph.served, ph.stats = run.finish(spec.Pinned.StepsPerImage, chk)
	return ph, bodyErr
}

// servingCommon fills the metrics both serving workloads share.
func (ps *pinnedServing) servingCommon(rep *report, w serveSpec) error {
	setup, err := ps.setupTime(w)
	if err != nil {
		return err
	}
	rep.metrics["setup_s"] = setup
	rep.metrics["plan_pred_ips"] = ps.predIPS
	return nil
}

// layerMetrics fills the per-layer metrics of a traced serving phase.
// Per-image ratios use every image the deployment served (the tracer and
// provider counters cover the warm-up too); proc covers the measured
// window, in which windowServed images were served.
func (ph *servePhase) layerMetrics(rep *report, rec *tracer, latMS []float64, proc procDelta, windowServed int) {
	m := rep.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	served := float64(ph.served)
	m["gateway.wait_ms_mean"] = mean(latMS) - rec.meanMS(spanSubmit)
	for t := range ph.run.outcomes {
		m["gateway.expired"] += float64(ph.run.outcomes[t][outExpired])
		m["gateway.late"] += float64(ph.run.outcomes[t][outLate])
	}
	sub := sortedCopy(rec.submitDur)
	m["runtime.submit_ms_p50"] = quantile(sub, 0.5)
	m["runtime.submit_ms_p99"] = quantile(sub, 0.99)
	var steps, invocations int
	var busy float64
	for _, s := range ph.stats {
		steps += s.StepsExecuted
		invocations += s.Invocations
		busy += s.ComputeSec
	}
	if served > 0 && invocations > 0 {
		m["runtime.steps_per_image"] = float64(steps) / served
		m["runtime.batch_ratio"] = float64(steps) / float64(invocations)
		m["runtime.compute_busy_ms_per_image"] = busy * 1e3 / served
	}
	msgs := rec.n(spanSend) + rec.n(spanBuffered)
	if msgs > 0 && served > 0 {
		wireNs := rec.durNs[spanSend].Load() + rec.durNs[spanBuffered].Load() + rec.durNs[spanFlush].Load()
		m["transport.send_us_mean"] = float64(wireNs) / float64(msgs) / 1e3
		m["transport.bytes_per_image"] = float64(rec.bytes[spanSend].Load()+rec.bytes[spanBuffered].Load()) / served
		m["transport.msgs_per_image"] = float64(msgs) / served
		m["transport.flushes_per_msg"] = float64(rec.n(spanSend)+rec.n(spanFlush)) / float64(msgs)
	}
	for name, share := range ph.shares {
		m[name] = share
	}
	if windowServed > 0 {
		m["proc.alloc_bytes_per_op"] = float64(proc.allocBytes) / float64(windowServed)
	}
	m["proc.gc_cycles"] = float64(proc.gcCycles)
	m["proc.gc_pause_ms"] = msOf(proc.gcPause)
	rep.note("%d spans recorded, %d kept for the dump", rec.next.Load(), len(rec.kept()))
}

func runServeBulk(spec *benchSpec, seed int64, seconds float64, trace bool, chk *checks) (*report, error) {
	w := spec.ServeBulk
	ps, err := loadPinned(spec.Pinned, chk)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	measure := func(rec *tracer, dur float64) (*servePhase, *window, error) {
		var win *window
		ph, err := ps.phase(spec, w, rec, chk, func(run *servingRun) error {
			var err error
			win, err = run.closedLoop(rand.New(rand.NewSource(seed)), w.Outstanding, secondsDur(w.WarmupS), secondsDur(dur))
			return err
		})
		return ph, win, err
	}
	if !trace {
		if err := ps.servingCommon(rep, w); err != nil {
			return nil, err
		}
		ph, win, err := measure(nil, seconds)
		if err != nil {
			return nil, err
		}
		rep.metrics["sustained_per_s"] = win.throughput()
		rep.metrics["latency_p50_ms"] = win.pct(0.5)
		rep.metrics["latency_p90_ms"] = win.pct(0.9)
		rep.metrics["cpu_ms_per_op"] = win.cpuMSPerOp()
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.attempted, rep.failed = win.attempted, win.misses
		rep.note("throughput_ips %.1f (median of %v windows); %d images, latency from enqueue, windowed p99 %.3f ms", win.throughput(), statWindow, win.served, win.pct(0.99))
		rep.note("failed_frac %.4f; %d images served by the deployment", float64(rep.failed)/float64(max(rep.attempted, 1)), ph.served)
		return rep, nil
	}
	_, base, err := measure(nil, seconds/2)
	if err != nil {
		return nil, err
	}
	rec := newTracer()
	ph, win, err := measure(rec, seconds/2)
	if err != nil {
		return nil, err
	}
	ph.layerMetrics(rep, rec, win.latMS, win.begin.until(win.end), win.served)
	rep.metrics["trace.overhead_frac"] = 1 - win.throughput()/base.throughput()
	rep.attempted, rep.failed = win.attempted, win.misses
	rep.note("untraced %.1f img/s, traced %.1f img/s", base.throughput(), win.throughput())
	return rep, dumpSpans(rec, "serve_bulk", seed)
}
