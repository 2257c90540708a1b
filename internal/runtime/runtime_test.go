package runtime

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

func testEnv(types ...device.Type) *sim.Env {
	devs := device.Fleet(types...)
	net := &network.Network{Requester: network.DefaultLink(network.Constant(200))}
	for range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Constant(200)))
	}
	return &sim.Env{Model: cnn.VGG16(), Devices: device.AsModels(devs), Net: net}
}

func equalStrategy(env *sim.Env, boundaries []int) *strategy.Strategy {
	s := &strategy.Strategy{Boundaries: boundaries}
	for v := 0; v+1 < len(boundaries); v++ {
		h := strategy.VolumeHeight(env.Model, boundaries, v)
		s.Splits = append(s.Splits, strategy.EqualCuts(h, env.NumProviders()))
	}
	return s
}

// testTransport builds a fresh transport of the kind under test. The
// DISTREDGE_TEST_TRANSPORT environment variable selects the suite-wide
// default — "inproc" (the default: fast, race-clean, no socket timing),
// "tcp" (binary codec) or "tcp+deflate" (compressed payloads) — so CI runs
// the same suites over sockets and over channels. Tests that pin a
// transport (equivalence, shaped/chaos differentials) construct their own.
func testTransport() transport.Transport {
	switch v := os.Getenv("DISTREDGE_TEST_TRANSPORT"); v {
	case "", "inproc":
		// Pooled, like the serving defaults: the whole runtime suite (and
		// the race job) then exercises payload buffer reuse.
		return transport.NewPooledInproc(nil)
	case "tcp":
		return transport.NewPooledTCP(nil, nil)
	case "tcp+deflate":
		return transport.NewPooledTCP(transport.Deflate(), nil)
	default:
		panic(fmt.Sprintf("unknown DISTREDGE_TEST_TRANSPORT %q (want inproc|tcp|tcp+deflate)", v))
	}
}

func fastOpts() Options {
	return Options{TimeScale: 0.002, BytesScale: 0.001, Transport: testTransport()}
}

func TestBuildPlanCoverage(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalStrategy(env, []int{0, 10, 14, 18})
	plan, err := BuildPlan(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Providers) != 4 {
		t.Fatalf("plans = %d, want 4", len(plan.Providers))
	}
	if len(plan.Scatter) == 0 || len(plan.Await) == 0 {
		t.Fatal("plan must scatter inputs and await results")
	}
	// Every step must have needs and a positive compute time.
	for _, pp := range plan.Providers {
		for _, st := range pp.Steps {
			if len(st.Needs) == 0 {
				t.Errorf("provider %d volume %d: no needs", pp.Index, st.Volume)
			}
			if st.ComputeSec <= 0 {
				t.Errorf("provider %d volume %d: no compute", pp.Index, st.Volume)
			}
			if st.RowBytes < 1 {
				t.Errorf("provider %d volume %d: bad row bytes", pp.Index, st.Volume)
			}
		}
	}
	// VGG-16 has FC layers: exactly one provider carries the synthetic FC
	// step, and the await set is that single chunk.
	fcSteps := 0
	for _, pp := range plan.Providers {
		for _, st := range pp.Steps {
			if st.Volume == s.NumVolumes() {
				fcSteps++
			}
		}
	}
	if fcSteps != 1 {
		t.Errorf("fc steps = %d, want 1", fcSteps)
	}
	if len(plan.Await) != 1 {
		t.Errorf("await = %v, want the single FC result", plan.Await)
	}
}

func TestBuildPlanFullyConvolutional(t *testing.T) {
	devs := device.Fleet(device.Nano, device.Nano)
	net := &network.Network{Requester: network.DefaultLink(network.Constant(100))}
	for range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Constant(100)))
	}
	env := &sim.Env{Model: cnn.YOLOv2(), Devices: device.AsModels(devs), Net: net}
	s := equalStrategy(env, strategy.PoolBoundaries(env.Model))
	plan, err := BuildPlan(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// No FC: both providers return rows directly.
	if len(plan.Await) != 2 {
		t.Errorf("await = %d chunks, want 2", len(plan.Await))
	}
}

func TestBuildPlanRejectsInvalid(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	bad := &strategy.Strategy{Boundaries: []int{0, 5}}
	if _, err := BuildPlan(env, bad, fastOpts()); err == nil {
		t.Fatal("invalid strategy must be rejected")
	}
}

// TestBuildPlanValidation: negative, NaN and infinite emulation scales are
// rejected rather than silently shipping 1-byte payloads or skipping every
// compute sleep; 0 still means the default scale of 1.
func TestBuildPlanValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	cases := []struct {
		name string
		opts Options
		want string // error substring; "" means the plan must build
	}{
		{"default scales", Options{}, ""},
		{"nan time scale", Options{TimeScale: nan}, "TimeScale"},
		{"inf time scale", Options{TimeScale: inf}, "TimeScale"},
		{"-inf time scale", Options{TimeScale: -inf}, "TimeScale"},
		{"negative time scale", Options{TimeScale: -1}, "TimeScale"},
		{"nan bytes scale", Options{BytesScale: nan}, "BytesScale"},
		{"inf bytes scale", Options{BytesScale: inf}, "BytesScale"},
		{"-inf bytes scale", Options{BytesScale: -inf}, "BytesScale"},
		{"negative bytes scale", Options{BytesScale: -1}, "BytesScale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := BuildPlan(env, s, c.opts)
			if c.want == "" {
				if err != nil {
					t.Fatalf("err = %v, want a plan", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestClusterRunsImages(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := equalStrategy(env, []int{0, 10, 14, 18})
	cluster, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.NumProviders() != 4 {
		t.Fatalf("providers = %d", cluster.NumProviders())
	}
	stats, err := cluster.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Images != 5 || len(stats.PerImageMS) != 5 {
		t.Fatalf("stats wrong: %+v", stats)
	}
	if stats.IPS <= 0 {
		t.Fatal("IPS must be positive")
	}
	for i, ms := range stats.PerImageMS {
		if ms <= 0 {
			t.Errorf("image %d latency %gms", i, ms)
		}
	}
}

// TestClusterSlowDeviceShowsInLatency checks the sleep emulation is really
// on the path, deterministically: every image's measured latency is at
// least the compute floor its plan's sleeps guarantee (time.Sleep never
// returns early, and an image's result needs one step of every generation
// in turn), and the same strategy's floor on a slower fleet is higher.
// Comparing two fleets' wall clocks instead was noisy by construction.
func TestClusterSlowDeviceShowsInLatency(t *testing.T) {
	fast := testEnv(device.Xavier, device.Xavier)
	slow := testEnv(device.Nano, device.Nano)
	bound := []int{0, 10, 14, 18}

	run := func(env *sim.Env) time.Duration {
		opts := Options{TimeScale: 0.02, BytesScale: 0.001, Batch: 1, Transport: testTransport()}
		s := equalStrategy(env, bound)
		cl, err := Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// The floor: the cheapest step of each generation, slept in turn.
		cheapest := map[int]time.Duration{}
		for _, pp := range cl.plan.Providers {
			for _, st := range pp.Steps {
				d := time.Duration(st.ComputeSec * float64(time.Second))
				if c, ok := cheapest[st.Volume]; !ok || d < c {
					cheapest[st.Volume] = d
				}
			}
		}
		var floor time.Duration
		for _, d := range cheapest {
			floor += d
		}
		st, err := cl.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		for i, ms := range st.PerImageMS {
			// PerImageMS truncates to whole microseconds.
			if lat := time.Duration(ms*1e3) * time.Microsecond; lat+time.Microsecond < floor {
				t.Errorf("image %d latency %s below its compute floor %s: sleeps left the path", i, lat, floor)
			}
		}
		return floor
	}
	if f, s := run(fast), run(slow); s <= f {
		t.Errorf("slow fleet's compute floor (%s) not above the fast fleet's (%s)", s, f)
	}
}

func TestClusterOffloadShape(t *testing.T) {
	// Offload strategy: only one provider computes; the run must still
	// complete (routes skip idle providers).
	env := testEnv(device.Xavier, device.Pi3)
	b := strategy.SingleVolume(env.Model)
	h := strategy.VolumeHeight(env.Model, b, 0)
	s := &strategy.Strategy{Boundaries: b, Splits: [][]int{strategy.AllOnProvider(h, 2, 0)}}
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(2); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsZeroImages(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(0); err == nil {
		t.Fatal("zero images must error")
	}
}

func TestCloseIdempotent(t *testing.T) {
	env := testEnv(device.Nano, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close() // must not panic
}

func TestClusterStats(t *testing.T) {
	env := testEnv(device.Xavier, device.Pi3)
	s := offloadLikeStrategy(env)
	cl, err := Deploy(env, s, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(4); err != nil {
		t.Fatal(err)
	}
	stats := cl.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %d entries", len(stats))
	}
	// The Xavier did all the work; the Pi3 was never scheduled.
	if stats[0].ComputeSec <= 0 || stats[0].StepsExecuted == 0 {
		t.Errorf("active provider shows no work: %+v", stats[0])
	}
	if stats[1].ComputeSec != 0 || stats[1].StepsExecuted != 0 {
		t.Errorf("idle provider shows work: %+v", stats[1])
	}
	if stats[0].ChunksReceived == 0 || stats[0].ChunksSent == 0 {
		t.Errorf("active provider moved no chunks: %+v", stats[0])
	}
}

func offloadLikeStrategy(env *sim.Env) *strategy.Strategy {
	b := strategy.SingleVolume(env.Model)
	h := strategy.VolumeHeight(env.Model, b, 0)
	return &strategy.Strategy{Boundaries: b, Splits: [][]int{strategy.AllOnProvider(h, env.NumProviders(), 0)}}
}
