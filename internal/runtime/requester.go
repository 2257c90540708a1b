package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// Cluster is a deployed strategy: live providers plus the requester-side
// bookkeeping needed to stream images through them and — with
// Options.Recover — to survive providers dying mid-stream.
type Cluster struct {
	env  *sim.Env
	opts Options

	// provMu guards the deployment view, which recovery swaps wholesale:
	// providers is indexed by provider index (nil = quarantined), alive is
	// the liveness mask re-planning runs against.
	provMu    sync.Mutex
	strat     *strategy.Strategy // guarded by provMu
	plan      *Plan              // guarded by provMu
	providers []*Provider        // guarded by provMu
	alive     []bool             // guarded by provMu

	tr transport.Transport
	ln transport.Listener
	// sendMu serialises input scatters across concurrent submitters:
	// per-destination sends inside one scatter stay concurrent, but
	// successive images enter the uplink one at a time, matching the
	// pipeline simulator's uplink busy floor no matter how many callers
	// (RunPipelined's admission loop, gateway Submits) race to admit.
	sendMu sync.Mutex
	// Registration hot state is sharded by image id (reg) with the gc
	// cursor on its own mutex (wm), so concurrent Submit callers and
	// provider result fan-in stop serialising on one lock; see shards.go.
	reg     *regTable
	wm      *watermark
	nextImg atomic.Uint32 // monotonic across runs, so image ids are never reused

	links  map[int]transport.Conn // guarded by linkMu
	linkMu sync.Mutex
	done   chan struct{}
	closed sync.Once

	health *healthMonitor

	// Failure state is epoch-fenced: recovery swaps in a fresh epoch, and
	// reports stamped with an older one (a torn-down provider's dying gasp)
	// are ignored. The recovery totals feed RunStats as before/after deltas.
	failMu     sync.Mutex
	ep         *epoch  // guarded by failMu
	recoveries int     // guarded by failMu
	replanMS   float64 // guarded by failMu
}

// epoch is one deployment's failure record. A waiter captures the epoch it
// was admitted in, so it reads that epoch's failure — channel and error
// together — even after recovery has swapped in the next one.
type epoch struct {
	n       int
	failed  chan struct{} // closed at the epoch's first failure
	settled chan struct{} // with Options.Recover: closed once recovery from that failure finished
	err     error         // under Cluster.failMu: the first failure, later the terminal error
	suspect int           // under Cluster.failMu: suspected dead provider, -1 unknown
}

func newEpoch(n int) *epoch {
	return &epoch{n: n, failed: make(chan struct{}), settled: make(chan struct{}), suspect: -1}
}

// Deploy builds the plan for a strategy and starts one provider per device
// over Options.Transport (default: localhost TCP with the binary chunk
// codec). With Options.Recover it also starts the cluster's recovery
// supervisor, which heals every admission path (Submit and RunPipelined
// alike) after a provider dies.
func Deploy(env *sim.Env, strat *strategy.Strategy, opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	plan, err := BuildPlan(env, strat, opts)
	if err != nil {
		return nil, err
	}
	n := env.NumProviders()
	c := &Cluster{
		env:   env,
		opts:  opts,
		strat: strat,
		plan:  plan,
		alive: make([]bool, n),
		reg:   newRegTable(),
		wm:    newWatermark(),
		tr:    opts.Transport,
		links: make(map[int]transport.Conn),
		done:  make(chan struct{}),
		ep:    newEpoch(0),
	}
	for i := range c.alive {
		c.alive[i] = true
	}
	// Size the transport's wire buffers to the largest chunk the plan will
	// ship, so a full chunk crosses to the socket in one write.
	transport.SetBufferHint(c.tr, plan.maxChunkBytes())
	if c.ln, err = c.tr.Listen(RequesterID); err != nil { // requester result listener
		return nil, err
	}
	if c.providers, err = c.startProviders(plan, c.alive, 0); err != nil {
		c.Close()
		return nil, err
	}
	// The monitor must exist before acceptResults starts routing beats to it.
	if opts.HeartbeatInterval > 0 {
		c.health = newHealthMonitor(c, n, opts.HeartbeatInterval, opts.HeartbeatMisses)
		c.health.arm(0, c.alive)
	}
	go c.acceptResults()
	if opts.Recover {
		go c.supervise()
	}
	return c, nil
}

// startProviders starts a provider for every alive index of the plan,
// deployed in the given epoch and wired to each other and to the
// requester. On error it closes the ones it started.
func (c *Cluster) startProviders(plan *Plan, alive []bool, epoch int) ([]*Provider, error) {
	// Reports are dropped once cluster-wide teardown has begun (Close tears
	// providers down one by one, so a not-yet-closed provider's send to an
	// already-closed peer must not record a spurious failure), and
	// failProvider fences off reports from torn-down epochs.
	fail := func(suspect int, err error) {
		select {
		case <-c.done:
		default:
			c.failProvider(epoch, suspect, err)
		}
	}
	provs := make([]*Provider, len(alive))
	addrs := map[int]string{RequesterID: c.ln.Addr()}
	for _, pp := range plan.Providers {
		if !alive[pp.Index] {
			continue
		}
		p, err := newProvider(pp, epoch, c.opts.HeartbeatInterval, c.opts.Batch, fail, c.tr)
		if err != nil {
			closeAll(provs)
			return nil, fmt.Errorf("runtime: deploy provider %d: %w", pp.Index, err)
		}
		provs[pp.Index] = p
		addrs[pp.Index] = p.Addr()
	}
	for _, p := range provs {
		if p != nil {
			p.setPeers(addrs)
		}
	}
	return provs, nil
}

// Addr returns the requester's result listener address.
func (c *Cluster) Addr() string { return c.ln.Addr() }

// Transport returns the wire stack the cluster is deployed over.
func (c *Cluster) Transport() transport.Transport { return c.tr }

// failProvider records the first failure of the given epoch, remembering
// the suspected provider (-1 = unknown), and wakes every waiter so a dead
// peer surfaces immediately instead of after the per-image timeout.
func (c *Cluster) failProvider(epoch, suspect int, err error) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	ep := c.ep
	if epoch != ep.n {
		return
	}
	select {
	case <-ep.failed:
	default:
		ep.err = err
		ep.suspect = suspect
		close(ep.failed)
	}
}

// current returns the serving epoch.
func (c *Cluster) current() *epoch {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	return c.ep
}

// settle waits until ep's failure (if any) is resolved. It returns nil when
// ep never failed or a recovery has since opened a newer epoch; otherwise
// the failure is terminal — at once without Options.Recover — and settle
// returns it.
func (c *Cluster) settle(ep *epoch) error {
	select {
	case <-ep.failed:
	default:
		return nil
	}
	if c.opts.Recover {
		select {
		case <-ep.settled:
		case <-c.done:
		}
	}
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if c.ep != ep {
		return nil
	}
	return ep.err
}

// Err returns the first error the cluster recorded in its current epoch,
// or nil while healthy. With Options.Recover, a successful recovery opens
// a new epoch and Err reads nil again; otherwise failure is sticky.
func (c *Cluster) Err() error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	select {
	case <-c.ep.failed:
		return c.ep.err
	default:
		return nil
	}
}

func (c *Cluster) acceptResults() {
	for {
		cn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			for {
				ch, err := cn.Recv()
				if err != nil {
					cn.Close()
					return
				}
				if ch.Volume == heartbeatVolume {
					if c.health != nil {
						c.health.beat(int(ch.Image), int(ch.Lo))
					}
					continue
				}
				// Result payloads are bookkeeping-only: recycle them once
				// the pending set is updated below.
				transport.RecyclePayload(c.tr, ch.Payload)
				c.reg.shard(ch.Image).chunkArrived(ch.Image,
					chunkKey{int(ch.Volume), int(ch.Lo), int(ch.Hi)})
			}
		}()
	}
}

// register allocates the next image id and arms its completion tracking
// against the given plan's awaited chunks.
func (c *Cluster) register(plan *Plan) (uint32, chan struct{}) {
	done := make(chan struct{})
	img := c.nextImg.Add(1)
	m := make(map[chunkKey]bool, len(plan.Await))
	for _, a := range plan.Await {
		m[chunkKey{a.Volume, a.Lo, a.Hi}] = true
	}
	c.reg.shard(img).register(img, m, done)
	return img, done
}

// dropRegistration unwinds a registration no result will complete (a
// failed scatter, a timed-out try, an aborted image): its pending set and
// done channel are dropped and the image is marked completed so the gc
// watermark can advance past it — without that, gcLow wedges below the
// dead id forever and provider assembly state above it is never collected
// again. Late frames for the id are discarded by the same fencing.
func (c *Cluster) dropRegistration(img uint32) {
	c.reg.shard(img).drop(img)
	c.complete(img)
}

// complete records a finished image and advances the gc watermark: provider
// assembly state is dropped only once every image at or below it has
// completed, so an early finisher never tears down state a straggler in the
// admission window still needs.
func (c *Cluster) complete(img uint32) {
	low := c.wm.complete(img)
	c.provMu.Lock()
	provs := append([]*Provider(nil), c.providers...)
	c.provMu.Unlock()
	for _, p := range provs {
		if p != nil {
			p.gc(low)
		}
	}
}

// scatter is the one (re-)admission primitive. It drops the request's
// previous registration (old; 0 = none), then, holding sendMu — recovery
// swaps the deployment only while holding it — snapshots the serving epoch
// and plan together, registers a fresh image id and scatters its input
// rows, so a registration and its scatter never span a plan swap. done is
// nil when ep had already failed (img 0) or this scatter failed it.
func (c *Cluster) scatter(old uint32) (ep *epoch, img uint32, done chan struct{}) {
	if old != 0 {
		c.dropRegistration(old)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	ep = c.current()
	select {
	case <-ep.failed:
		return ep, 0, nil
	default:
	}
	c.provMu.Lock()
	plan := c.plan
	c.provMu.Unlock()
	img, done = c.register(plan)
	if c.sendInput(ep, plan, img) != nil {
		return ep, img, nil
	}
	return ep, img, done
}

// sendInput scatters one image's input rows to the plan's volume-0
// providers. Per-destination sends run concurrently — the single-image
// oracle's scatter model, and what per-pair connections really allow —
// while sendMu keeps successive images' scatters ordered like the pipeline
// simulator's uplink busy floor. A failed scatter fails ep, attributed to
// its destination provider so recovery can quarantine it.
func (c *Cluster) sendInput(ep *epoch, plan *Plan, img uint32) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	firstErr, firstDest := error(nil), -1
	for k, need := range plan.Scatter {
		dest := plan.ScatterDest[k]
		ch := Chunk{
			Image:   img,
			Volume:  volInput,
			Lo:      int32(need.Lo),
			Hi:      int32(need.Hi),
			Payload: transport.GetPayload(c.tr, (need.Hi-need.Lo)*plan.InputRowBytes),
		}
		fillActivation(ch.Payload, img^uint32(need.Lo)<<16)
		wg.Add(1)
		go func(dest int, ch Chunk) {
			defer wg.Done()
			if err := c.sendToProvider(dest, ch); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr, firstDest = err, dest
				}
				mu.Unlock()
			}
		}(dest, ch)
	}
	wg.Wait()
	if firstErr != nil {
		err := fmt.Errorf("runtime: scatter image %d to provider %d: %w", img, firstDest, firstErr)
		c.failProvider(ep.n, firstDest, err)
		return err
	}
	return nil
}

func (c *Cluster) sendToProvider(dest int, ch Chunk) error {
	c.linkMu.Lock()
	o, ok := c.links[dest]
	if !ok {
		c.provMu.Lock()
		p := c.providers[dest] // dest is a plan's provider index
		c.provMu.Unlock()
		if p == nil {
			c.linkMu.Unlock()
			return fmt.Errorf("runtime: provider %d is quarantined", dest)
		}
		cn, err := c.tr.Dial(RequesterID, p.Addr())
		if err != nil {
			c.linkMu.Unlock()
			return err
		}
		o = cn
		c.links[dest] = o
	}
	c.linkMu.Unlock()
	return o.Send(ch)
}

// RunStats summarises a streaming run over the cluster.
type RunStats struct {
	Images     int
	Window     int // admission window the run used (1 = sequential)
	Batch      int // per-step image batching cap the providers ran with
	TotalSec   float64
	IPS        float64   // completed images per second
	PerImageMS []float64 // admission-to-completion latency per image (0 = never completed)

	// Recovery accounting (all zero on churn-free runs).
	Completed   int     // images whose results arrived (== Images on success)
	Recoveries  int     // quarantine + re-plan + redeploy cycles
	Requeued    int     // images re-scattered after a recovery
	ReplanMS    float64 // total wall-clock spent re-planning and redeploying
	Quarantined []int   // providers removed from the fleet, in index order
}

// MeanLatMS returns the mean admission-to-completion latency over
// PerImageMS (0 for an empty run). Images that never completed count as
// their recorded zero, matching how PerImageMS reports them.
func (s RunStats) MeanLatMS() float64 {
	if len(s.PerImageMS) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.PerImageMS {
		sum += v
	}
	return sum / float64(len(s.PerImageMS))
}

// Run streams `images` images through the deployed strategy one at a time
// (Section V-A's sequential protocol) and returns timing statistics.
func (c *Cluster) Run(images int) (RunStats, error) {
	return c.RunPipelined(images, 1)
}

// RunPipelined streams `images` images keeping up to `window` of them in
// flight: a new image is admitted as soon as a slot frees, so providers
// overlap different images' steps and the run measures sustained
// throughput. Window 1 is the paper's one-image-at-a-time protocol.
//
// It is a window-bounded loop over Submit, so it fails and recovers exactly
// as Submit does: once the cluster fails terminally it stops admitting and
// returns the cluster's sticky error (Err), with the stats of the images
// that completed. With Options.Recover the stats count the recoveries the
// run rode out, the images re-scattered after them and the recovery cost;
// each image's latency is measured from its first admission, so the
// recovery stall shows in PerImageMS.
func (c *Cluster) RunPipelined(images, window int) (RunStats, error) {
	if images < 1 {
		return RunStats{}, fmt.Errorf("runtime: need at least one image")
	}
	if window < 1 {
		return RunStats{}, fmt.Errorf("runtime: window must be >= 1, got %d", window)
	}
	if err := c.settle(c.current()); err != nil {
		return RunStats{}, fmt.Errorf("runtime: cluster already failed: %w", err)
	}
	stats := RunStats{Images: images, Window: window, Batch: c.opts.Batch, PerImageMS: make([]float64, images)}
	c.failMu.Lock()
	recoveries, replanMS := c.recoveries, c.replanMS
	c.failMu.Unlock()
	var (
		mu     sync.Mutex  // guards stats against the slot goroutines
		failed atomic.Bool // a Submit failed, so the cluster failed terminally
		wg     sync.WaitGroup
	)
	sem := make(chan struct{}, window)
	start := time.Now()
	for slot := 0; slot < images; slot++ {
		// Backpressure: wait for a free slot in the window; stop admitting
		// once the cluster failed terminally.
		if sem <- struct{}{}; failed.Load() {
			break
		}
		t0 := time.Now()
		ep, img, done := c.scatter(0) // admissions scatter in slot order
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			requeued, err := c.submit(ep, img, done)
			if err != nil {
				failed.Store(true)
			}
			mu.Lock()
			stats.Requeued += requeued
			if err == nil {
				stats.PerImageMS[slot] = msSince(t0)
				stats.Completed++
			}
			mu.Unlock()
			<-sem
		}(slot)
	}
	wg.Wait()
	stats.TotalSec = time.Since(start).Seconds()
	if stats.TotalSec > 0 {
		stats.IPS = float64(stats.Completed) / stats.TotalSec
	}
	c.failMu.Lock()
	stats.Recoveries, stats.ReplanMS = c.recoveries-recoveries, c.replanMS-replanMS
	c.failMu.Unlock()
	stats.Quarantined = c.Quarantined()
	if failed.Load() {
		return stats, c.Err()
	}
	return stats, nil
}

// scatterTries bounds, with Options.Recover, how many times one image is
// scattered before its timeouts fail the cluster: a lost frame costs one
// re-scatter, not the deployment.
const scatterTries = 3

// Submit streams one image through the deployed strategy and blocks until
// its result assembles. It is the cluster's one admission path, safe for
// arbitrary concurrent callers: the serving gateway (internal/gateway)
// multiplexes tenants' requests over one deployed fleet through it with its
// own windowing, fairness and deadlines, and RunPipelined is a windowed
// loop over it. With Options.Recover an image aborted by a provider death
// is re-scattered once the cluster has recovered, and a timed-out one up
// to scatterTries times; Submit fails only once the failure is terminal.
// Without Recover the first failure is sticky (see Err) and surfaces from
// every in-flight and subsequent Submit.
func (c *Cluster) Submit() error {
	_, err := c.submit(c.scatter(0))
	return err
}

// submit is Submit's body after the first scatter: it waits for the image
// and re-scatters it as needed. It returns how many times the image was
// re-scattered after a recovery (RunPipelined's Requeued), and leaves no
// registration behind on any path (img is the live one; 0 = none).
func (c *Cluster) submit(ep *epoch, img uint32, done chan struct{}) (requeued int, err error) {
	var scattered bool
	for timeouts := 0; ; ep, img, done = c.scatter(img) {
		scattered = scattered || img != 0
		if done != nil {
			timer := time.NewTimer(c.opts.Timeout)
			select {
			case <-done:
			case <-ep.failed:
			case <-c.done:
				c.failProvider(ep.n, -1, fmt.Errorf("runtime: cluster closed during run"))
			case <-timer.C:
				if timeouts++; c.opts.Recover && timeouts < scatterTries {
					continue
				}
				c.failProvider(ep.n, -1, fmt.Errorf("runtime: image %d timed out after %s", img, c.opts.Timeout))
			}
			timer.Stop()
			select {
			case <-done: // the result won a race with the failure
				c.complete(img)
				return requeued, nil
			default:
			}
		}
		// ep failed: before this admission, during its scatter, or while
		// its result was pending.
		if err := c.settle(ep); err != nil {
			if img == 0 {
				return requeued, fmt.Errorf("runtime: cluster already failed: %w", err)
			}
			c.dropRegistration(img)
			return requeued, fmt.Errorf("runtime: image %d aborted: %w", img, err)
		}
		if scattered {
			requeued++
		}
	}
}

// NumProviders returns the number of providers the cluster was deployed
// with, including quarantined ones.
func (c *Cluster) NumProviders() int {
	c.provMu.Lock()
	defer c.provMu.Unlock()
	return len(c.providers)
}

// LiveProviders returns the number of providers currently serving.
func (c *Cluster) LiveProviders() int {
	c.provMu.Lock()
	defer c.provMu.Unlock()
	return strategy.CountAlive(c.alive)
}

// Quarantined returns the indices of providers removed from the fleet.
func (c *Cluster) Quarantined() []int {
	c.provMu.Lock()
	defer c.provMu.Unlock()
	var out []int
	for i, a := range c.alive {
		if !a {
			out = append(out, i)
		}
	}
	return out
}

// Strategy returns the strategy the cluster is currently serving — after a
// recovery this is the re-planned one, not the strategy it was deployed
// with.
func (c *Cluster) Strategy() *strategy.Strategy {
	c.provMu.Lock()
	defer c.provMu.Unlock()
	return c.strat
}

// KillProvider simulates a crash of provider i: its listener and
// connections drop and its heartbeats stop, exactly as a powered-off
// device looks to the rest of the cluster. Chaos tests and the churn
// experiments use it to inject failures mid-run.
func (c *Cluster) KillProvider(i int) error {
	c.provMu.Lock()
	if i < 0 || i >= len(c.providers) {
		c.provMu.Unlock()
		return fmt.Errorf("runtime: no provider %d", i)
	}
	p := c.providers[i]
	c.provMu.Unlock()
	if p == nil {
		return nil // already quarantined
	}
	p.close()
	return nil
}

// Close tears the cluster down.
func (c *Cluster) Close() {
	c.closed.Do(func() {
		close(c.done)
		if c.health != nil {
			c.health.close()
		}
		if c.ln != nil {
			c.ln.Close()
		}
		c.linkMu.Lock()
		for _, o := range c.links {
			o.Close()
		}
		c.linkMu.Unlock()
		c.provMu.Lock()
		provs := append([]*Provider(nil), c.providers...)
		c.provMu.Unlock()
		closeAll(provs)
	})
}
