package distredge

import (
	"math"
	"strings"
	"testing"

	"distredge/internal/runtime"
)

func fourProviders() []Provider {
	return []Provider{
		{Type: "xavier", BandwidthMbps: 200},
		{Type: "xavier", BandwidthMbps: 200},
		{Type: "nano", BandwidthMbps: 200},
		{Type: "nano", BandwidthMbps: 200},
	}
}

func TestModelsAndBaselines(t *testing.T) {
	if len(Models()) != 8 {
		t.Errorf("Models = %v", Models())
	}
	if len(Baselines()) != 7 {
		t.Errorf("Baselines = %v", Baselines())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("nope", fourProviders()); err == nil {
		t.Error("unknown model must error")
	}
	if _, err := New("vgg16", nil); err == nil {
		t.Error("empty providers must error")
	}
	if _, err := New("vgg16", []Provider{{Type: "abacus", BandwidthMbps: 10}}); err == nil {
		t.Error("unknown device type must error")
	}
	if _, err := New("vgg16", []Provider{{Type: "nano", BandwidthMbps: 0}}); err == nil {
		t.Error("zero bandwidth must error")
	}
}

func TestPlanEvaluateRoundTrip(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(PlanConfig{Effort: EffortTiny})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Evaluate(plan, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IPS <= 0 || rep.Volumes < 1 {
		t.Fatalf("bad report %+v", rep)
	}
	desc := plan.Describe("vgg16")
	if !strings.Contains(desc, "DistrEdge") || !strings.Contains(desc, "volume 0") {
		t.Errorf("Describe output unexpected: %s", desc)
	}
}

func TestPlanBeatsWorstBaseline(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(PlanConfig{Effort: EffortTiny})
	if err != nil {
		t.Fatal(err)
	}
	de, err := sys.Evaluate(plan, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Baselines() {
		bp, err := sys.Baseline(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Evaluate(bp, 50)
		if err != nil {
			t.Fatal(err)
		}
		if de.IPS < rep.IPS*0.95 {
			t.Errorf("DistrEdge %.2f IPS below baseline %s %.2f IPS", de.IPS, name, rep.IPS)
		}
	}
}

func TestBaselineUnknown(t *testing.T) {
	sys, _ := New("vgg16", fourProviders())
	if _, err := sys.Baseline("Magic"); err == nil {
		t.Error("unknown baseline must error")
	}
}

func TestEffortValidation(t *testing.T) {
	sys, _ := New("vgg16", fourProviders())
	if _, err := sys.Plan(PlanConfig{Effort: Effort("weird")}); err == nil {
		t.Error("unknown effort must error")
	}
}

func TestPartitionOnly(t *testing.T) {
	sys, _ := New("vgg16", fourProviders(), WithSeed(2))
	b, err := sys.PartitionOnly(0.75, EffortTiny)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || len(b) < 2 {
		t.Errorf("bad boundaries %v", b)
	}
}

func TestDeployOverTCP(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("DeeperThings")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sys.Deploy(plan, runtime.Options{TimeScale: 0.002, BytesScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	stats, err := cluster.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IPS <= 0 {
		t.Fatal("deployed run produced no throughput")
	}
}

func TestFinetunerAdaptsToDynamicNetwork(t *testing.T) {
	sys, err := New("vgg16", []Provider{
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
	}, WithSeed(9), WithDynamicNetwork())
	if err != nil {
		t.Fatal(err)
	}
	ft, plan, err := sys.NewFinetuner(PlanConfig{Effort: EffortTiny})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy == nil {
		t.Fatal("no initial strategy")
	}
	p2, err := ft.Finetune(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Evaluate(p2, 20); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeModel(t *testing.T) {
	s, err := DescribeModel("yolov2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "yolov2") || !strings.Contains(s, "conv1") {
		t.Errorf("summary missing content: %q", s[:80])
	}
	if _, err := DescribeModel("nope"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestTimelineRendering(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("DeeperThings")
	if err != nil {
		t.Fatal(err)
	}
	gantt, err := sys.Timeline(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gantt, "dev  0") || !strings.Contains(gantt, "total") {
		t.Errorf("gantt missing content:\n%s", gantt)
	}
}

func TestSaveLoadPlan(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("AOFL")
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.SavePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sys.LoadPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Evaluate(plan, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Evaluate(back, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPS != b.IPS {
		t.Errorf("loaded plan performs differently: %g vs %g", a.IPS, b.IPS)
	}
	// A plan saved for vgg16 must not load into a resnet50 system.
	other, err := New("resnet50", fourProviders())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadPlan(data); err == nil {
		t.Error("cross-model plan load must fail")
	}
}

func TestEvaluateChurn(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Baseline("CoEdge")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.EvaluatePipelined(plan, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	failAt := 0.5 * float64(40) / base.IPS
	events := []ChurnEvent{{Kind: "drop", Device: 0, AtSec: failAt}}
	on, err := sys.EvaluateChurn(plan, 40, 4, events, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if on.Completed != 40 || on.Recoveries != 1 || on.FailedAtSec >= 0 {
		t.Fatalf("recovered churn report wrong: %+v", on)
	}
	off, err := sys.EvaluateChurn(plan, 40, 4, events, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if off.Completed >= 40 || off.Failed == 0 || off.FailedAtSec != failAt {
		t.Fatalf("truncated churn report wrong: %+v", off)
	}
	if _, err := sys.EvaluateChurn(plan, 10, 1, []ChurnEvent{{Kind: "explode", Device: 0, AtSec: 1}}, true, nil); err == nil {
		t.Error("unknown event kind must error")
	}
}

// TestPlanCachedHitAndChurnReplan covers the public plan-cache surface:
// the second PlanCached for an identical system is an exact hit returning
// an equivalent plan without re-searching, the cache counters read
// consistently, and the cached re-planner drives EvaluateChurn
// through a recovery.
func TestPlanCachedHitAndChurnReplan(t *testing.T) {
	cache := NewPlanCache(0)
	cfg := PlanConfig{Effort: EffortTiny}
	sys, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cold, out, err := sys.PlanCached(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out != PlanCold {
		t.Fatalf("first planning outcome = %q, want %q", out, PlanCold)
	}
	// A fresh System over the same fleet must key to the same signature.
	sys2, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	hit, out, err := sys2.PlanCached(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out != PlanHit {
		t.Fatalf("repeat planning outcome = %q, want %q", out, PlanHit)
	}
	if got, want := hit.Describe("vgg16"), cold.Describe("vgg16"); got != want {
		t.Fatalf("cached plan differs from the planned one:\n%s\nvs\n%s", got, want)
	}
	// The returned plan is the caller's: mutating it must not poison the cache.
	hit.Strategy.Splits[0][0]++
	again, out, err := sys.PlanCached(cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out != PlanHit || again.Describe("vgg16") != cold.Describe("vgg16") {
		t.Fatal("cache entry mutated through a returned plan")
	}
	st := cache.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 entry, 2 hits, 1 miss", st)
	}

	// Cached recovery re-planning through the public churn evaluator.
	replan, err := cache.CachedReplan(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := []ChurnEvent{{Kind: "drop", Device: 0, AtSec: 0.2}}
	rep, err := sys.EvaluateChurn(cold, 40, 4, events, true, replan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 40 || rep.Recoveries != 1 {
		t.Fatalf("cached-replan churn report wrong: %+v", rep)
	}
	if cache.Stats().Entries < 2 {
		t.Error("recovery re-plan did not cache the survivor-fleet plan")
	}
}

// TestPlanAlphaValidation: Plan and PlanCached resolve Alpha the same way —
// 0 means the paper's 0.75, anything outside [0,1] (NaN included) is an
// error — and a valid alpha plans the same strategy through both.
func TestPlanAlphaValidation(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	verbs := []struct {
		name string
		plan func(PlanConfig) (*Plan, error)
	}{
		{"Plan", sys.Plan},
		{"PlanCached", func(cfg PlanConfig) (*Plan, error) {
			p, _, err := sys.PlanCached(cfg, NewPlanCache(0))
			return p, err
		}},
	}
	for _, tc := range []struct {
		alpha float64
		ok    bool
	}{{0, true}, {0.25, true}, {-0.5, false}, {math.NaN(), false}, {1.5, false}} {
		var plans []string
		for _, v := range verbs {
			p, err := v.plan(PlanConfig{Alpha: tc.alpha, Effort: EffortTiny})
			if tc.ok != (err == nil) {
				t.Errorf("%s(alpha %g): err = %v, want ok = %v", v.name, tc.alpha, err, tc.ok)
				continue
			}
			if err == nil {
				plans = append(plans, p.Describe("vgg16"))
			}
		}
		if len(plans) == 2 && plans[0] != plans[1] {
			t.Errorf("alpha %g: Plan and PlanCached disagree:\n%s\nvs\n%s", tc.alpha, plans[0], plans[1])
		}
	}
	zero, err := sys.Plan(PlanConfig{Effort: EffortTiny})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := sys.Plan(PlanConfig{Alpha: 0.75, Effort: EffortTiny})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Describe("vgg16") != paper.Describe("vgg16") {
		t.Error("alpha 0 did not plan at the paper's 0.75")
	}
}

// TestPlanCachedKeysPlanningParameters: one fleet planned through one cache
// under another effort and alpha is a fresh miss that serves exactly what
// Plan computes for that config — never the plan cached for the first.
func TestPlanCachedKeysPlanningParameters(t *testing.T) {
	sys, err := New("vgg16", fourProviders(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(0)
	first := PlanConfig{Alpha: 0.1, Effort: EffortTiny}
	second := PlanConfig{Alpha: 0.9, Effort: EffortQuick}
	if _, out, err := sys.PlanCached(first, cache); err != nil || out != PlanCold {
		t.Fatalf("first request: outcome %q, err %v; want cold", out, err)
	}
	got, out, err := sys.PlanCached(second, cache)
	if err != nil {
		t.Fatal(err)
	}
	if out != PlanCold {
		t.Fatalf("request under other planning parameters: outcome %q, want %q", out, PlanCold)
	}
	want, err := sys.Plan(second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Describe("vgg16") != want.Describe("vgg16") {
		t.Fatalf("PlanCached served another plan than Plan:\n%s\nvs\n%s", got.Describe("vgg16"), want.Describe("vgg16"))
	}
	if _, out, err := sys.PlanCached(first, cache); err != nil || out != PlanHit {
		t.Fatalf("repeat of the first request: outcome %q, err %v; want hit", out, err)
	}
	if st := cache.Stats(); st.Entries != 2 || st.WarmHits != 0 {
		t.Fatalf("cache stats = %+v, want 2 entries and no warm start", st)
	}
}
