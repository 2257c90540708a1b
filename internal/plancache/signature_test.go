package plancache

import (
	"math"
	"math/rand"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// sigEnv builds an env with per-provider bandwidths and stable traces.
func sigEnv(m *cnn.Model, seed int64, bws []float64, types ...device.Type) *sim.Env {
	return &sim.Env{
		Model:   m,
		Devices: device.AsModels(device.Fleet(types...)),
		Net:     network.NewStable(bws, 10, seed),
	}
}

func TestSignatureDeterministic(t *testing.T) {
	build := func() Signature {
		env := sigEnv(cnn.VGG16(), 7, []float64{100, 200, 100, 50},
			device.Xavier, device.Nano, device.TX2, device.Pi3)
		return SignatureOf(env, sim.ThroughputObjective{Window: 8}, "")
	}
	a, b := build(), build()
	if a.Key() != b.Key() {
		t.Fatalf("same env contents produced different keys:\n%s\n%s", a.Key(), b.Key())
	}
}

func TestSignatureJitterInvariant(t *testing.T) {
	// Two Stable traces of the same nominal bandwidth differ sample by
	// sample (different seeds) but describe the same regime: the signature
	// must alias them, or recurring fleets would never hit the cache.
	a := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{200, 200}, device.Nano, device.Nano), nil, "")
	b := SignatureOf(sigEnv(cnn.VGG16(), 99, []float64{200, 200}, device.Nano, device.Nano), nil, "")
	if a.Key() != b.Key() {
		t.Fatalf("same nominal regime, different seeds, keys differ:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestSignatureCollisionProperty is the collision property test: distinct
// fleets (different device multiset, order, bandwidth tier, trace regime,
// model or objective) must never alias to one key, while rebuilding the
// same fleet must.
func TestSignatureCollisionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	models := []func() *cnn.Model{cnn.VGG16, cnn.YOLOv2}
	types := []device.Type{device.Nano, device.TX2, device.Xavier, device.Pi3}
	// Bandwidth tiers a full half-octave apart, so distinct tiers always
	// land in distinct buckets.
	tiers := []float64{50, 100, 200, 400}
	objectives := []sim.Objective{nil, sim.ThroughputObjective{Window: 8}}

	type fleetCfg struct {
		model int
		devs  []int
		bw    []int
		obj   int
	}
	key := func(c fleetCfg) string {
		m := models[c.model]()
		devs := make([]device.Type, len(c.devs))
		net := &network.Network{Requester: network.DefaultLink(network.Stable(400, 10, 3))}
		for i, d := range c.devs {
			devs[i] = types[d]
			net.Providers = append(net.Providers, network.DefaultLink(network.Stable(tiers[c.bw[i]], 10, int64(i))))
		}
		env := &sim.Env{Model: m, Devices: device.AsModels(device.Fleet(devs...)), Net: net}
		return SignatureOf(env, objectives[c.obj], "").Key()
	}
	canon := func(c fleetCfg) string {
		// A canonical rendering of the config itself: two configs are the
		// same fleet iff their canonical renderings are equal.
		s := string(rune('m'+c.model)) + string(rune('o'+c.obj))
		for i := range c.devs {
			s += string(rune('0'+c.devs[i])) + string(rune('0'+c.bw[i]))
		}
		return s
	}

	seen := map[string]string{} // signature key -> canonical config
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(3)
		c := fleetCfg{model: rng.Intn(len(models)), obj: rng.Intn(len(objectives))}
		for i := 0; i < n; i++ {
			c.devs = append(c.devs, rng.Intn(len(types)))
			c.bw = append(c.bw, rng.Intn(len(tiers)))
		}
		k, cc := key(c), canon(c)
		if prev, ok := seen[k]; ok && prev != cc {
			t.Fatalf("signature collision: configs %q and %q share key %s", prev, cc, k)
		}
		seen[k] = cc
		if key(c) != k {
			t.Fatalf("rebuilding config %q changed its key", cc)
		}
	}
}

func TestSignatureSpreadRegime(t *testing.T) {
	// A flat link and a highly fluctuating link of similar mean bandwidth
	// are different regimes: they plan differently, so they must not share
	// a signature. Constant traces bucket to spread 0, the 40-160 Mbps
	// random walk to 1.5-2 octaves of spread.
	flat := &sim.Env{
		Model:   cnn.VGG16(),
		Devices: device.AsModels(device.Fleet(device.Nano, device.Nano)),
		Net: &network.Network{
			Requester: network.DefaultLink(network.Constant(200)),
			Providers: []network.Link{
				network.DefaultLink(network.Constant(100)),
				network.DefaultLink(network.Constant(100)),
			},
		},
	}
	churny := &sim.Env{
		Model:   flat.Model,
		Devices: flat.Devices,
		Net: &network.Network{
			Requester: network.DefaultLink(network.Constant(200)),
			Providers: []network.Link{
				network.DefaultLink(network.Dynamic(40, 160, 10, 5)),
				network.DefaultLink(network.Dynamic(40, 160, 10, 6)),
			},
		},
	}
	a, b := SignatureOf(flat, nil, ""), SignatureOf(churny, nil, "")
	if a.Key() == b.Key() {
		t.Fatalf("flat and fluctuating regimes alias to %s", a.Key())
	}
	if a.Devices[0].Spread != 0 {
		t.Fatalf("constant trace spread bucket %d, want 0", a.Devices[0].Spread)
	}
	if b.Devices[0].Spread < 1 {
		t.Fatalf("dynamic trace spread bucket %d, want >= 1", b.Devices[0].Spread)
	}
}

func TestSignatureOrderMatters(t *testing.T) {
	a := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Xavier, device.Nano), nil, "")
	b := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Nano, device.Xavier), nil, "")
	if a.Key() == b.Key() {
		t.Fatal("permuted fleets alias: splits are provider-indexed, order must be identity")
	}
	// ... but as a multiset they are the same fleet, so the warm-start
	// distance between them is zero.
	if d := Distance(a, b); d != 0 {
		t.Fatalf("permuted same-multiset fleets at distance %v, want 0", d)
	}
}

func TestObjectiveKeyNormalisesDefaults(t *testing.T) {
	cases := []struct {
		a, b sim.Objective
	}{
		{nil, sim.LatencyObjective{}},
		{sim.ThroughputObjective{}, sim.ThroughputObjective{Window: 4, Images: 24, Batch: 1}},
		{sim.SLOThroughputObjective{P95Sec: 0.5}, sim.SLOThroughputObjective{Window: 4, Images: 24, Batch: 1, P95Sec: 0.5}},
	}
	for i, c := range cases {
		if ObjectiveKey(c.a) != ObjectiveKey(c.b) {
			t.Errorf("case %d: %q != %q, want equal", i, ObjectiveKey(c.a), ObjectiveKey(c.b))
		}
	}
	distinct := []sim.Objective{
		nil,
		sim.ThroughputObjective{},
		sim.ThroughputObjective{Window: 8},
		sim.SLOThroughputObjective{P95Sec: 0.5},
		sim.SLOThroughputObjective{P95Sec: 0.25},
	}
	keys := map[string]int{}
	for i, o := range distinct {
		k := ObjectiveKey(o)
		if j, ok := keys[k]; ok {
			t.Errorf("objectives %d and %d alias to %q", j, i, k)
		}
		keys[k] = i
	}
}

func TestDistance(t *testing.T) {
	base := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Xavier, device.Nano), nil, "")
	if d := Distance(base, base); d != 0 {
		t.Fatalf("self distance %v", d)
	}
	otherModel := SignatureOf(sigEnv(cnn.YOLOv2(), 1, []float64{100, 100}, device.Xavier, device.Nano), nil, "")
	if d := Distance(base, otherModel); !math.IsInf(d, 1) {
		t.Fatalf("cross-model distance %v, want +Inf", d)
	}
	otherObj := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Xavier, device.Nano), sim.ThroughputObjective{}, "")
	if d := Distance(base, otherObj); !math.IsInf(d, 1) {
		t.Fatalf("cross-objective distance %v, want +Inf", d)
	}
	otherParams := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Xavier, device.Nano), nil, "a0.9")
	if d := Distance(base, otherParams); !math.IsInf(d, 1) {
		t.Fatalf("cross-params distance %v, want +Inf", d)
	}
	if base.Key() == otherParams.Key() {
		t.Fatalf("planner parameters missing from the key: %s", base.Key())
	}
	// One tier up on both links: closer than losing a device.
	shifted := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{150, 150}, device.Xavier, device.Nano), nil, "")
	dShift := Distance(base, shifted)
	if dShift <= 0 || dShift >= unmatchedPenalty {
		t.Fatalf("bandwidth-shift distance %v, want in (0, %d)", dShift, unmatchedPenalty)
	}
	grown := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100, 100}, device.Xavier, device.Nano, device.Nano), nil, "")
	if d := Distance(base, grown); d < unmatchedPenalty {
		t.Fatalf("grown-fleet distance %v, want >= %d", d, unmatchedPenalty)
	}
}

func TestWarmSeedShapes(t *testing.T) {
	m := cnn.VGG16()
	big := sigEnv(m, 1, []float64{100, 100, 100}, device.Xavier, device.Nano, device.Nano)
	small := sigEnv(m, 1, []float64{100, 100}, device.Xavier, device.Nano)
	bigSig := SignatureOf(big, nil, "")
	smallSig := SignatureOf(small, nil, "")

	sBig := &strategy.Strategy{Boundaries: strategy.SingleVolume(m)}
	h := strategy.VolumeHeight(m, sBig.Boundaries, 0)
	sBig.Splits = [][]int{strategy.EqualCuts(h, 3)}
	sSmall := &strategy.Strategy{
		Boundaries: strategy.SingleVolume(m),
		Splits:     [][]int{strategy.EqualCuts(h, 2)},
	}

	// Equal counts: the strategy transfers as-is.
	if got := warmSeed(m, bigSig, bigSig, sBig); got != sBig {
		t.Fatal("equal-count warm seed should transfer index-for-index")
	}
	// Cached fleet larger: projection onto the survivor subsequence.
	proj := warmSeed(m, smallSig, bigSig, sBig)
	if proj == nil {
		t.Fatal("projection seed missing")
	}
	if err := proj.Validate(m, 2); err != nil {
		t.Fatalf("projected seed invalid: %v", err)
	}
	// Cached fleet smaller: lift onto the larger fleet.
	lifted := warmSeed(m, bigSig, smallSig, sSmall)
	if lifted == nil {
		t.Fatal("lift seed missing")
	}
	if err := lifted.Validate(m, 3); err != nil {
		t.Fatalf("lifted seed invalid: %v", err)
	}
	// No order-preserving correspondence: Pi3 never appears in the cached
	// fleet, so nothing transfers.
	alien := SignatureOf(sigEnv(m, 1, []float64{100, 100}, device.Pi3, device.Pi3), nil, "")
	if got := warmSeed(m, alien, bigSig, sBig); got != nil {
		t.Fatal("warm seed across unrelated fleets should be nil")
	}
}
