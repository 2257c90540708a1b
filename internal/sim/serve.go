package sim

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"distredge/internal/device"
	"distredge/internal/strategy"
)

// Admission policies for Serve and the runtime gateway it mirrors. Both
// implementations share the same pick rule so a policy swept offline here
// transfers to internal/gateway unchanged:
//
//   - AdmitFIFO serves requests strictly in enqueue order (ties broken by
//     tenant index), so a heavy tenant's burst runs ahead of everyone
//     queued behind it;
//   - AdmitWFQ is weighted fair queueing by request count: each admission
//     charges the tenant 1/Weight of virtual service and the tenant with
//     the least virtual service (plus its next request's charge) goes
//     first, so a small tenant with any backlog is interleaved with a
//     heavy one instead of waiting out its burst.
const (
	AdmitFIFO = "fifo"
	AdmitWFQ  = "wfq"
)

// TenantSpec describes one tenant's workload for Serve: a backlog of
// Images requests enqueued together at EnqueueSec (the burst model — a
// client handing the gateway its whole batch at once).
type TenantSpec struct {
	Name   string
	Images int
	// Weight is the tenant's fair-queueing share (<= 0 means 1; must be
	// finite). Only AdmitWFQ consults it.
	Weight float64
	// Window caps the tenant's own in-flight requests (<= 0 means bounded
	// only by the global window).
	Window int
	// EnqueueSec is when the tenant's backlog arrives, relative to the
	// stream start. Must be finite and not negative.
	EnqueueSec float64
}

// TenantResult is one tenant's latency distribution out of a serving
// evaluation. Latencies are enqueue-to-completion — they include the time a
// request queued in the gateway before admission, which is what a
// per-tenant SLO bounds (and what FIFO vs fair queueing actually changes).
type TenantResult struct {
	Name        string
	Images      int
	PerImageSec []float64 // enqueue-to-completion, in admission order
	MeanLatMS   float64
	P50LatMS    float64
	P95LatMS    float64
	MaxLatMS    float64
}

// ServeConfig parameterises Serve.
type ServeConfig struct {
	Tenants []TenantSpec
	Policy  string // AdmitFIFO (default) or AdmitWFQ
	Window  int    // global admission window shared by every tenant

	// Batch is the per-step image batching the devices run with: up to
	// Batch images whose inputs queued behind a busy device coalesce into
	// one step invocation under the sublinear BatchedComputeSec cost model.
	// 1 (or negative) disables batching. 0 — the zero value — is the
	// adaptive cap, mirroring the runtime's Options.Batch: a step drains
	// whatever queued behind the busy device, without a size bound.
	Batch int

	// WireFrac scales every transfer's byte count, modelling a wire codec
	// that shrinks payloads (0.25 for int8 quantization, 0.5 for fp16).
	// 0 means 1 (raw bytes). Must be positive and finite.
	WireFrac float64

	Start float64 // trace time of the stream start

	// Events is the scripted fleet timeline (absolute trace times, any
	// order). Recover re-plans over the survivors at each event and
	// re-admits aborted in-flight images; without it a DeviceDrop ends the
	// stream at the event time (the sticky-failure semantics of the
	// runtime's Cluster.Err), and joins are ignored. ReplanSec is the
	// simulated controller delay charged per recovery (re-planning + state
	// migration; finite, >= 0): no image is re-admitted before event time +
	// ReplanSec.
	// Replan picks the re-planner; nil uses strategy.Rebalance.
	Events    []ChurnEvent
	Recover   bool
	ReplanSec float64
	Replan    ReplanFunc
}

// ServeResult summarises a serving evaluation. The embedded
// PipelineResult covers the whole stream: PerImageSec is measured from
// each image's first admission (so a re-admitted image carries its wasted
// attempt and the re-planning delay), in admission order, and IPS and the
// latency distribution cover only committed images. Tenants holds the
// per-tenant enqueue-to-completion distributions, in ServeConfig order.
type ServeResult struct {
	PipelineResult
	Completed int // images whose results were committed
	Failed    int // images lost to an unrecovered drop

	Recoveries int // re-plans executed
	Requeued   int // in-flight images aborted at an event and re-admitted

	// FailedAtSec is the absolute trace time an unrecovered drop ended the
	// stream, or -1.
	FailedAtSec float64
	// EventRecoverySec holds, per applied event in order, the delay from the
	// event to the first committed completion after it (-1 when the stream
	// produced none) — the simulator's time-to-recover prediction.
	EventRecoverySec []float64

	Tenants []TenantResult
}

// Image states of a serving run.
const (
	imgPending uint8 = iota
	imgInflight
	imgDone
)

// serveImage is one admitted image; ids follow first-admission order.
type serveImage struct {
	tenant   int
	state    uint8
	firstAdm float64
	complete float64 // absolute completion of the latest attempt
	lat      float64 // first admission to completion
}

type serveTenant struct {
	name     string
	weight   float64
	cap      int
	enq      float64 // absolute arrival of the burst
	fresh    int     // images never admitted
	requeued []int   // aborted image ids awaiting re-admission, front first
	inflight int
	vserved  float64 // WFQ virtual service already charged
}

func (t *serveTenant) backlog() int { return t.fresh + len(t.requeued) }

type serveSlot struct {
	done   float64
	tenant int
}

// server is one Serve run: the validated config plus the admission state.
type server struct {
	e      *Env
	cfg    ServeConfig
	batch  int
	evs    []ChurnEvent // sorted by time
	replan ReplanFunc

	tenants []serveTenant
	total   int
	backlog int
	imgs    []serveImage
	slots   []serveSlot

	res       ServeResult
	appliedAt []float64
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// init validates and normalises the config.
func (sv *server) init(e *Env, cfg ServeConfig) error {
	if len(cfg.Tenants) == 0 {
		return fmt.Errorf("sim: need at least one tenant")
	}
	if cfg.Window < 1 {
		return fmt.Errorf("sim: window must be >= 1, got %d", cfg.Window)
	}
	if cfg.Policy == "" {
		cfg.Policy = AdmitFIFO
	}
	if cfg.Policy != AdmitFIFO && cfg.Policy != AdmitWFQ {
		return fmt.Errorf("sim: unknown admission policy %q (want %s|%s)", cfg.Policy, AdmitFIFO, AdmitWFQ)
	}
	sv.e, sv.batch, sv.replan = e, cfg.Batch, cfg.Replan
	if sv.batch < 0 {
		sv.batch = 1
	}
	if cfg.WireFrac == 0 {
		cfg.WireFrac = 1
	}
	if !(cfg.WireFrac > 0 && finite(cfg.WireFrac)) {
		return fmt.Errorf("sim: wire fraction must be positive and finite, got %v", cfg.WireFrac)
	}
	if !finite(cfg.Start) {
		return fmt.Errorf("sim: start time %g is not finite", cfg.Start)
	}
	if !finite(cfg.ReplanSec) || cfg.ReplanSec < 0 {
		return fmt.Errorf("sim: re-plan charge must be finite and non-negative, got %g", cfg.ReplanSec)
	}
	sv.tenants = make([]serveTenant, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		if t.Images < 1 {
			return fmt.Errorf("sim: tenant %d needs at least one image, got %d", i, t.Images)
		}
		if !finite(t.EnqueueSec) || t.EnqueueSec < 0 {
			return fmt.Errorf("sim: tenant %d enqueue time %g is negative or not finite", i, t.EnqueueSec)
		}
		if !finite(t.Weight) {
			return fmt.Errorf("sim: tenant %d weight %g is not finite", i, t.Weight)
		}
		st := serveTenant{name: t.Name, weight: t.Weight, cap: t.Window, enq: cfg.Start + t.EnqueueSec, fresh: t.Images}
		if st.name == "" {
			st.name = "tenant" + strconv.Itoa(i)
		}
		if st.weight <= 0 {
			st.weight = 1
		}
		if st.cap <= 0 {
			st.cap = cfg.Window
		}
		sv.tenants[i] = st
		sv.total += t.Images
	}
	n := e.NumProviders()
	if len(cfg.Events) > 0 {
		sv.evs = append([]ChurnEvent(nil), cfg.Events...)
		sort.SliceStable(sv.evs, func(i, j int) bool { return sv.evs[i].At < sv.evs[j].At })
	}
	for _, ev := range sv.evs {
		if ev.Device < 0 || ev.Device >= n {
			return fmt.Errorf("sim: churn event device %d out of range [0,%d)", ev.Device, n)
		}
		if !finite(ev.At) {
			return fmt.Errorf("sim: churn event time %g is not finite", ev.At)
		}
		if ev.Kind == DeviceSlow && !(ev.Factor > 0 && finite(ev.Factor)) {
			return fmt.Errorf("sim: slow event needs a positive finite factor, got %g", ev.Factor)
		}
	}
	if sv.replan == nil {
		sv.replan = func(e *Env, old *strategy.Strategy, alive []bool) (*strategy.Strategy, error) {
			return strategy.Rebalance(e.Model, old, alive)
		}
	}
	sv.cfg = cfg
	sv.backlog = sv.total
	sv.imgs = make([]serveImage, 0, sv.total)
	sv.slots = make([]serveSlot, 0, cfg.Window)
	return nil
}

// Serve is the simulator's serving engine. It admits every tenant's
// requests into one shared pipeline over runPipelined's busy-floor
// resource model, keeping up to Window images in flight, and replays the
// scripted fleet events along the way.
//
// A slot frees when its image completes, and the admission policy picks the
// next request among tenants with backlog, per-tenant window slack and an
// arrived burst. Freeing the earliest-completing slot (what the gateway's
// semaphore does) is the same as freeing the earliest-admitted one, because
// images complete in admission order under this cost model
// (TestServeCompletionsMonotone).
//
// An event fires before any admission at or after its time. It commits the
// in-flight images complete by then, aborts the rest to the front of their
// tenants' backlogs, recompiles the plan for the changed fleet (re-planned
// over the survivors with Recover) and admits nothing before the event time
// plus ReplanSec. DESIGN.md "Simulator serving engine" explains why this
// model is conservative.
func (e *Env) Serve(s *strategy.Strategy, cfg ServeConfig) (ServeResult, error) {
	var sv server
	if err := sv.init(e, cfg); err != nil {
		return ServeResult{}, err
	}
	if err := sv.run(s); err != nil {
		return sv.res, err
	}
	sv.summarise()
	return sv.res, nil
}

// pick returns the tenant the policy admits next at time now, or -1.
func (sv *server) pick(now float64) int {
	best := -1
	var bestKey float64
	for i := range sv.tenants {
		t := &sv.tenants[i]
		if t.backlog() == 0 || t.enq > now || t.inflight >= t.cap {
			continue
		}
		key := t.enq
		if sv.cfg.Policy == AdmitWFQ {
			key = t.vserved + 1/t.weight
		}
		if best < 0 || key < bestKey {
			best, bestKey = i, key
		}
	}
	return best
}

// run replays every admission and event; the result's counters fill as it
// goes.
func (sv *server) run(s *strategy.Strategy) error {
	e := sv.e
	n := e.NumProviders()
	p, err := e.checkoutPlan(s)
	if err != nil {
		return err
	}
	// Return the untouched original plan to the env memo; plans recompiled
	// at events are bound to derived envs and are simply dropped.
	orig := p
	defer func() {
		if p == orig {
			e.checkinPlan(p)
		}
	}()
	ps := newPipeState(n, len(p.vols), sv.batch, sv.cfg.WireFrac)
	curStrat := s
	var alive []bool
	var factors []float64
	if len(sv.evs) > 0 {
		alive, factors = make([]bool, n), make([]float64, n)
		for i := range alive {
			alive[i] = true
			factors[i] = 1
		}
	}
	sv.res.FailedAtSec = -1

	now := sv.cfg.Start
	for evIdx := 0; ; {
		// Free every slot whose image has completed by now; next is the
		// earliest completion still ahead.
		next := math.Inf(1)
		for i := 0; i < len(sv.slots); {
			if d := sv.slots[i].done; d > now {
				if d < next {
					next = d
				}
				i++
				continue
			}
			sv.tenants[sv.slots[i].tenant].inflight--
			sv.slots[i] = sv.slots[len(sv.slots)-1]
			sv.slots = sv.slots[:len(sv.slots)-1]
		}

		// Admit at now, fire the next event, or advance the cursor. An
		// event fires before any admission at or after its time.
		fire := false
		pick := -1
		if sv.backlog == 0 {
			// Only in-flight images remain: a further event can still abort
			// them, so keep firing events until they are all past.
			if evIdx == len(sv.evs) {
				break
			}
			last := math.Inf(-1)
			for i := range sv.imgs {
				if im := &sv.imgs[i]; im.state == imgInflight && im.complete > last {
					last = im.complete
				}
			}
			if sv.evs[evIdx].At >= last {
				break
			}
			fire = true
		} else {
			if len(sv.slots) < sv.cfg.Window {
				pick = sv.pick(now)
			}
			due := now
			if pick < 0 {
				// Nothing admissible yet: the next admission waits for the
				// earliest completion or burst arrival.
				due = next
				for i := range sv.tenants {
					if t := &sv.tenants[i]; t.backlog() > 0 && t.enq > now && t.enq < due {
						due = t.enq
					}
				}
			}
			fire = evIdx < len(sv.evs) && sv.evs[evIdx].At <= due
			if !fire && pick < 0 {
				if math.IsInf(due, 1) {
					return fmt.Errorf("sim: serving admission wedged with %d images left", sv.backlog)
				}
				now = due
				continue
			}
		}

		if !fire {
			sv.admit(pick, now, p.runPipelined(now, ps))
			continue
		}

		ev := sv.evs[evIdx]
		evIdx++
		T := ev.At
		// Events that change nothing are skipped without aborting work.
		if (ev.Kind == DeviceDrop && !alive[ev.Device]) ||
			(ev.Kind == DeviceJoin && (alive[ev.Device] || !sv.cfg.Recover)) {
			continue
		}
		if ev.Kind == DeviceDrop && !sv.cfg.Recover {
			// Sticky failure: commit what finished before the drop, fail the
			// rest, end the stream at the event time.
			sv.settle(T, false)
			sv.res.FailedAtSec = T
			return nil
		}
		switch ev.Kind {
		case DeviceDrop:
			alive[ev.Device] = false
		case DeviceJoin:
			alive[ev.Device] = true
		case DeviceSlow:
			factors[ev.Device] *= ev.Factor
		}
		models := make([]device.LatencyModel, n)
		for i := range models {
			models[i] = device.Scaled(e.Devices[i], factors[i])
		}
		curEnv := e.WithDevices(models)
		sv.settle(T, true)
		if sv.cfg.Recover {
			ns, err := sv.replan(curEnv, curStrat, alive)
			if err != nil {
				return fmt.Errorf("sim: re-plan at t=%g: %w", T, err)
			}
			curStrat = ns
			sv.res.Recoveries++
		}
		np, err := Compile(curEnv, curStrat)
		if err != nil {
			return fmt.Errorf("sim: recompile at t=%g: %w", T, err)
		}
		if p == orig {
			e.checkinPlan(p)
		}
		p = np
		ps.restartBatches(len(p.vols))

		// Nothing restarts before the event (plus the re-plan charge).
		floor := T
		if sv.cfg.Recover {
			floor += sv.cfg.ReplanSec
		}
		if floor > now {
			now = floor
		}
		sv.appliedAt = append(sv.appliedAt, T)
	}
	for i := range sv.imgs {
		if sv.imgs[i].state == imgInflight {
			sv.imgs[i].state = imgDone
		}
	}
	return nil
}

// admit starts the next request of tenant ti at time now; lat is the
// replayed admission-to-completion latency.
func (sv *server) admit(ti int, now, lat float64) {
	t := &sv.tenants[ti]
	var id int
	if len(t.requeued) > 0 {
		id = t.requeued[0]
		t.requeued = t.requeued[1:]
		// Re-admission after an abort: latency is measured from the image's
		// first admission, so the wasted attempt and the re-planning delay
		// are visible in the distribution.
		sv.imgs[id].lat = now + lat - sv.imgs[id].firstAdm
	} else {
		id = len(sv.imgs)
		t.fresh--
		sv.imgs = append(sv.imgs, serveImage{tenant: ti, firstAdm: now, lat: lat})
	}
	sv.backlog--
	sv.imgs[id].complete = now + lat
	sv.imgs[id].state = imgInflight
	t.vserved += 1 / t.weight
	t.inflight++
	sv.slots = append(sv.slots, serveSlot{done: now + lat, tenant: ti})
}

// settle resolves the in-flight images at an event at time T: those
// complete by T are committed, the rest abort — with requeue, back to the
// front of their tenant's backlog in admission order. Every slot frees:
// committed images are past, and nothing is admitted before T again.
func (sv *server) settle(T float64, requeue bool) {
	aborted := make([][]int, len(sv.tenants))
	for id := range sv.imgs {
		im := &sv.imgs[id]
		if im.state != imgInflight {
			continue
		}
		if im.complete <= T {
			im.state = imgDone
			continue
		}
		im.state = imgPending
		aborted[im.tenant] = append(aborted[im.tenant], id)
	}
	sv.slots = sv.slots[:0]
	for ti, ids := range aborted {
		t := &sv.tenants[ti]
		t.inflight = 0
		if requeue && len(ids) > 0 {
			t.requeued = append(ids, t.requeued...)
			sv.backlog += len(ids)
			sv.res.Requeued += len(ids)
		}
	}
}

// summarise fills the result from the committed images, in admission
// (id) order.
func (sv *server) summarise() {
	res := &sv.res
	start := sv.cfg.Start
	lastDone := start
	nd := 0
	for i := range sv.imgs {
		if im := &sv.imgs[i]; im.state == imgDone {
			nd++
			if im.complete > lastDone {
				lastDone = im.complete
			}
		}
	}
	res.Images = sv.total
	res.Window = sv.cfg.Window
	res.Batch = sv.batch
	res.Completed = nd
	res.Failed = sv.total - nd
	if res.FailedAtSec >= 0 {
		res.TotalSec = res.FailedAtSec - start
	} else {
		res.TotalSec = lastDone - start
	}
	if res.TotalSec > 0 {
		res.IPS = float64(nd) / res.TotalSec
	}
	// One buffer backs the whole-stream latencies, the completion times
	// (then the sort scratch) and every tenant's latencies.
	buf := make([]float64, 3*nd)
	lat, scratch, tbuf := buf[:nd:nd], buf[nd:2*nd:2*nd], buf[2*nd:]
	k := 0
	for i := range sv.imgs {
		if im := &sv.imgs[i]; im.state == imgDone {
			lat[k], scratch[k] = im.lat, im.complete
			k++
		}
	}
	res.PerImageSec = lat
	res.SteadyIPS = steadyIPS(scratch, res.IPS)
	res.MeanLatMS, res.P50LatMS, res.P95LatMS, res.MaxLatMS = latencyStats(lat, scratch)

	res.Tenants = make([]TenantResult, len(sv.tenants))
	for ti := range sv.tenants {
		t := &sv.tenants[ti]
		k := 0
		for i := range sv.imgs {
			if im := &sv.imgs[i]; im.state == imgDone && im.tenant == ti {
				tbuf[k] = im.complete - t.enq
				k++
			}
		}
		tr := TenantResult{Name: t.name, Images: k, PerImageSec: tbuf[:k:k]}
		tbuf = tbuf[k:]
		tr.MeanLatMS, tr.P50LatMS, tr.P95LatMS, tr.MaxLatMS = latencyStats(tr.PerImageSec, scratch)
		res.Tenants[ti] = tr
	}

	res.EventRecoverySec = make([]float64, len(sv.appliedAt))
	for k, T := range sv.appliedAt {
		res.EventRecoverySec[k] = -1
		for i := range sv.imgs {
			if im := &sv.imgs[i]; im.state == imgDone && im.complete > T {
				if d := im.complete - T; res.EventRecoverySec[k] < 0 || d < res.EventRecoverySec[k] {
					res.EventRecoverySec[k] = d
				}
			}
		}
	}
}

// latencyStats returns the mean, p50, p95 and max of a latency sample
// (seconds) in milliseconds, all zero for an empty sample. The sample is
// sorted in scratch, which must be at least as long.
func latencyStats(lat, scratch []float64) (mean, p50, p95, max float64) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sorted := scratch[:len(lat)]
	copy(sorted, lat)
	if !sort.Float64sAreSorted(sorted) { // enqueue-to-completion latencies usually are
		sort.Float64s(sorted)
	}
	var sum float64
	for _, l := range sorted {
		sum += l
	}
	return sum / float64(len(sorted)) * 1e3, quantile(sorted, 0.50) * 1e3,
		quantile(sorted, 0.95) * 1e3, sorted[len(sorted)-1] * 1e3
}
