package sim

import (
	"math"
	"strings"
	"testing"
)

// TestMultiStreamSingleTenantMatchesPipeline: a named tenant under an
// explicit FIFO policy is the PipelineStream wrapper's configuration, so the
// whole-stream totals must be bit-identical.
func TestMultiStreamSingleTenantMatchesPipeline(t *testing.T) {
	for _, constant := range []bool{true, false} {
		env := equivEnv(t, constant)
		s := equivStrategies(env.Model, env.NumProviders())[0]
		const images, window = 20, 4
		want, err := env.PipelineStream(s, images, window, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := env.Serve(s, ServeConfig{Tenants: []TenantSpec{{Name: "solo", Images: images}}, Policy: AdmitFIFO, Window: window, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalSec != want.TotalSec {
			t.Errorf("constant=%v: TotalSec %.17g != pipeline %.17g", constant, got.TotalSec, want.TotalSec)
		}
		if got.IPS != want.IPS {
			t.Errorf("constant=%v: IPS %.17g != pipeline %.17g", constant, got.IPS, want.IPS)
		}
		if len(got.Tenants) != 1 || got.Tenants[0].Images != images {
			t.Fatalf("constant=%v: tenant results %+v", constant, got.Tenants)
		}
	}
}

// TestMultiStreamWFQImprovesSmallTenantP95 is the offline half of the
// tentpole's differential criterion: a small high-weight tenant sharing
// the fleet with a heavy tenant's burst must see a strictly better p95
// under weighted fair queueing than under FIFO (where the burst runs
// first), while the whole stream's rate stays comparable.
func TestMultiStreamWFQImprovesSmallTenantP95(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	tenants := []TenantSpec{
		{Name: "heavy", Images: 16, Weight: 1},
		{Name: "small", Images: 4, Weight: 4},
	}
	fifo, err := env.Serve(s, ServeConfig{Tenants: tenants, Policy: AdmitFIFO, Window: 4, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	wfq, err := env.Serve(s, ServeConfig{Tenants: tenants, Policy: AdmitWFQ, Window: 4, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	fifoSmall := fifo.Tenants[1].P95LatMS
	wfqSmall := wfq.Tenants[1].P95LatMS
	if !(wfqSmall < fifoSmall) {
		t.Errorf("small tenant p95: wfq %.1fms must beat fifo %.1fms", wfqSmall, fifoSmall)
	}
	// Work conservation: the policies reorder the same requests over the
	// same resources, so the whole stream finishes at a comparable rate.
	if wfq.IPS < 0.5*fifo.IPS {
		t.Errorf("wfq IPS %.3f collapsed vs fifo %.3f — reordering must not destroy throughput", wfq.IPS, fifo.IPS)
	}
	// And the heavy tenant keeps its full request count.
	if wfq.Tenants[0].Images != 16 || fifo.Tenants[0].Images != 16 {
		t.Errorf("heavy tenant image counts: wfq %d fifo %d, want 16", wfq.Tenants[0].Images, fifo.Tenants[0].Images)
	}
}

// TestMultiStreamLateEnqueueWaits pins the arrival model: a tenant whose
// burst arrives after the stream start is not admitted before it, and its
// latencies are measured from ITS enqueue, not the stream start — a burst
// landing on an idle pipeline sees solo latency regardless of how late it
// arrived.
func TestMultiStreamLateEnqueueWaits(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	soloRes, err := env.Serve(s, ServeConfig{Tenants: []TenantSpec{{Name: "solo", Images: 1}}, Policy: AdmitFIFO, Window: 2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	early, err := env.Serve(s, ServeConfig{Tenants: []TenantSpec{{Name: "early", Images: 2}}, Policy: AdmitFIFO, Window: 2, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue the late burst after the early one has fully drained: the
	// pipeline is idle, so the late tenant's first request must complete in
	// exactly the solo single-image latency despite arriving mid-stream.
	gap := early.TotalSec + 1
	res, err := env.Serve(s, ServeConfig{
		Tenants: []TenantSpec{
			{Name: "early", Images: 2},
			{Name: "late", Images: 1, EnqueueSec: gap},
		},
		Window: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	late := res.Tenants[1]
	if late.Images != 1 {
		t.Fatalf("late tenant served %d of 1", late.Images)
	}
	if late.PerImageSec[0] != soloRes.Tenants[0].PerImageSec[0] {
		t.Errorf("late tenant on an idle pipeline: latency %.17g != solo %.17g — enqueue offset leaked into the measurement",
			late.PerImageSec[0], soloRes.Tenants[0].PerImageSec[0])
	}
	if res.TotalSec < gap {
		t.Errorf("stream finished in %.3fs, before the late burst at %.3fs arrived", res.TotalSec, gap)
	}
}

// TestMultiStreamValidation covers Serve's tenant and admission checks:
// the tenant list, window and policy, and each tenant's image count,
// enqueue time and weight. NaN slips past a plain "<= 0" comparison, so
// the float inputs are checked for finiteness explicitly.
func TestMultiStreamValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []serveErrCase{
		{"no tenants", ServeConfig{Window: 4}, "at least one tenant"},
		{"bad window", ServeConfig{Tenants: solo(1), Window: 0}, "window must be >= 1"},
		{"bad policy", ServeConfig{Tenants: solo(1), Window: 1, Policy: "lifo"}, "unknown admission policy"},
		{"no images", ServeConfig{Tenants: solo(0), Window: 1}, "at least one image"},
		{"negative enqueue", ServeConfig{Tenants: []TenantSpec{{Images: 1, EnqueueSec: -1}}, Window: 1}, "negative"},
		{"nan enqueue", ServeConfig{Tenants: []TenantSpec{{Images: 1, EnqueueSec: nan}}, Window: 1}, "not finite"},
		{"inf enqueue", ServeConfig{Tenants: []TenantSpec{{Images: 1, EnqueueSec: inf}}, Window: 1}, "not finite"},
		{"nan weight", ServeConfig{Tenants: []TenantSpec{{Images: 1, Weight: nan}}, Window: 1}, "weight"},
		{"inf weight", ServeConfig{Tenants: []TenantSpec{{Images: 1, Weight: inf}}, Window: 1}, "weight"},
	}
	expectServeErrors(t, cases)
}

// TestServeValidation covers Serve's remaining input checks: the start
// time, the re-plan charge and the churn script, non-finite values
// included. Wire fractions are covered by
// TestPipelineStreamOptsRejectsBadWireFrac.
func TestServeValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []serveErrCase{
		{"nan start", ServeConfig{Tenants: solo(1), Window: 1, Start: nan}, "start time"},
		{"inf start", ServeConfig{Tenants: solo(1), Window: 1, Start: inf}, "start time"},
		{"nan replan charge", ServeConfig{Tenants: solo(1), Window: 1, ReplanSec: nan}, "re-plan charge"},
		{"negative replan charge", ServeConfig{Tenants: solo(1), Window: 1, ReplanSec: -1}, "re-plan charge"},
		{"device out of range", ServeConfig{Tenants: solo(1), Window: 1,
			Events: []ChurnEvent{{At: 1, Kind: DeviceDrop, Device: 7}}}, "out of range"},
		{"nan event time", ServeConfig{Tenants: solo(1), Window: 1,
			Events: []ChurnEvent{{At: nan, Kind: DeviceDrop, Device: 0}}}, "not finite"},
		{"inf event time", ServeConfig{Tenants: solo(1), Window: 1,
			Events: []ChurnEvent{{At: inf, Kind: DeviceDrop, Device: 0}}}, "not finite"},
		{"zero slow factor", ServeConfig{Tenants: solo(1), Window: 1,
			Events: []ChurnEvent{{At: 1, Kind: DeviceSlow, Device: 0}}}, "positive finite factor"},
		{"nan slow factor", ServeConfig{Tenants: solo(1), Window: 1,
			Events: []ChurnEvent{{At: 1, Kind: DeviceSlow, Device: 0, Factor: nan}}}, "positive finite factor"},
		{"inf slow factor", ServeConfig{Tenants: solo(1), Window: 1,
			Events: []ChurnEvent{{At: 1, Kind: DeviceSlow, Device: 0, Factor: inf}}}, "positive finite factor"},
	}
	expectServeErrors(t, cases)
}

// serveErrCase is one config Serve must reject, with a substring of the
// error it must give.
type serveErrCase struct {
	name string
	cfg  ServeConfig
	want string
}

func expectServeErrors(t *testing.T, cases []serveErrCase) {
	t.Helper()
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := env.Serve(s, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestPipelineStreamSingleImageSteady covers the n=1 stream end to end:
// with one image there is no second half to rate, so SteadyIPS must fall
// back to the overall IPS instead of dividing by a zero span.
func TestPipelineStreamSingleImageSteady(t *testing.T) {
	env := equivEnv(t, true)
	s := equivStrategies(env.Model, env.NumProviders())[0]
	res, err := env.PipelineStream(s, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyIPS != res.IPS {
		t.Errorf("single-image stream: SteadyIPS %.17g != IPS %.17g", res.SteadyIPS, res.IPS)
	}
	if res.IPS <= 0 {
		t.Errorf("single-image stream: IPS %g must be positive", res.IPS)
	}
}

// solo is one unnamed tenant with a backlog of `images` enqueued at the
// stream start — the PipelineStream workload.
func solo(images int) []TenantSpec { return []TenantSpec{{Images: images}} }

// TestServeCompletionsMonotone pins the premise that makes Serve's slot
// rule safe: across the snapshot grid, every image completes no earlier
// than every image admitted before it. Freeing the earliest-completing
// slot (what the gateway's semaphore does) and freeing the
// earliest-admitted slot are then the same rule. A cost-model change that
// lets a later image overtake an earlier one fails here first.
func TestServeCompletionsMonotone(t *testing.T) {
	envs, strats, cases := serveGoldenGrid(t)
	for i, c := range cases {
		env := envs[c.env]
		var sv server
		if err := sv.init(env, c.config()); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := sv.run(strats[c.env][c.strat]); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		last := math.Inf(-1)
		for id, im := range sv.imgs {
			if im.state != imgDone {
				continue
			}
			if im.complete < last {
				t.Fatalf("case %d (%s): image %d completes at %.17g, before an earlier admission's %.17g",
					i, c, id, im.complete, last)
			}
			last = im.complete
		}
	}
}
