package experiments

import (
	"testing"

	"distredge/internal/runtime"
	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

func findObjectiveRow(rows []ObjectiveRow, c, planner string, window int) (ObjectiveRow, bool) {
	for _, r := range rows {
		if r.Case == c && r.Planner == planner && r.Window == window {
			return r, true
		}
	}
	return ObjectiveRow{}, false
}

// TestFigObjectiveThroughputPlannerWins is the sim half of the acceptance
// criterion: on both the stable and the dynamic case the IPS planner's
// strategy must sustain strictly more SteadyIPS than the latency
// planner's at window 4, while the latency planner keeps its win at the
// paper's sequential window 1 on the stable case (where the two planners
// disagree structurally: balanced split vs stage pipeline).
func TestFigObjectiveThroughputPlannerWins(t *testing.T) {
	rows, err := FigObjective(Tiny(), []int{1, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{}
	for _, r := range rows {
		cases[r.Case] = true
	}
	if len(cases) < 2 {
		t.Fatalf("sweep covers %d case(s), want stable + dynamic", len(cases))
	}
	for c := range cases {
		lat4, ok1 := findObjectiveRow(rows, c, PlannerLatency, 4)
		ips4, ok2 := findObjectiveRow(rows, c, PlannerIPS, 4)
		if !ok1 || !ok2 {
			t.Fatalf("case %s missing window-4 rows", c)
		}
		t.Logf("%s window 4: latency-planned steady %.2f ips, ips-planned steady %.2f ips (%.2fx)",
			c, lat4.SteadyIPS, ips4.SteadyIPS, ips4.SteadyIPS/lat4.SteadyIPS)
		if ips4.SteadyIPS <= lat4.SteadyIPS {
			t.Errorf("case %s: ips planner does not win at window 4: %.3f <= %.3f",
				c, ips4.SteadyIPS, lat4.SteadyIPS)
		}
	}
	lat1, _ := findObjectiveRow(rows, "DB-200Mbps", PlannerLatency, 1)
	ips1, _ := findObjectiveRow(rows, "DB-200Mbps", PlannerIPS, 1)
	if lat1.IPS <= ips1.IPS {
		t.Errorf("latency planner must win the sequential protocol: %.3f <= %.3f", lat1.IPS, ips1.IPS)
	}
}

// TestFigObjectiveParallelDeterministic extends the harness determinism
// guarantee to the objective sweep: rows are byte-identical for any
// worker count.
func TestFigObjectiveParallelDeterministic(t *testing.T) {
	serial := Tiny()
	parallel := Tiny()
	parallel.Parallel = 4
	a, err := FigObjective(serial, []int{1, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FigObjective(parallel, []int{1, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between worker counts:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestObjectiveDifferentialSimVsRuntime is the end-to-end half of the
// acceptance criterion: the simulator predicts that the throughput
// planner's strategy beats the latency planner's on measured IPS at
// window 4 while losing the sequential window-1 protocol, and the real
// runtime — deployed over the trace-shaped transport of PR 4, so the wire
// charges the same WiFi conditions the planners optimised against — must
// reproduce both orderings with a real margin.
func TestObjectiveDifferentialSimVsRuntime(t *testing.T) {
	env := objectiveCases(1)[0].env() // stable Group DB on VGG-16
	b := Tiny()
	latPlan, err := PlanObjective(env, b, 0.75, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ipsPlan, err := PlanObjective(env, b, 0.75, sim.ThroughputObjective{Window: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Sim predictions. The runtime below streams the same number of
	// images: a short run spends most of its wall time filling and
	// draining the window, which is not the steady state the sim rates.
	const images = 40
	simIPS := func(s *strategy.Strategy, w int) float64 {
		t.Helper()
		res, err := env.PipelineStream(s, images, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.SteadyIPS
	}
	if got, want := simIPS(ipsPlan, 4), simIPS(latPlan, 4); got <= want {
		t.Fatalf("sim must predict the ips plan ahead at window 4: %.3f <= %.3f", got, want)
	}
	if got, want := simIPS(latPlan, 1), simIPS(ipsPlan, 1); got <= want {
		t.Fatalf("sim must predict the latency plan ahead at window 1: %.3f <= %.3f", got, want)
	}

	// Runtime measurements over the shaped wire. The time scale keeps
	// per-image wall cost well above the runtime's fixed per-chunk
	// overhead (at 0.1 the stage plan's ~34ms model image shrinks to
	// ~3ms of wall, and scheduling noise compresses the measured ratios).
	const timeScale, bytesScale = 0.3, 0.001
	run := func(s *strategy.Strategy, w int) float64 {
		t.Helper()
		opts := runtime.Options{
			TimeScale:         timeScale,
			BytesScale:        bytesScale,
			Batch:             1,  // the sim predictions compared against are unbatched
			HeartbeatInterval: -1, // charged links must not starve liveness
		}
		opts.Transport = transport.NewShaped(transport.NewPooledInproc(nil), env.Net, timeScale, bytesScale, 0)
		cl, err := runtime.Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := cl.RunPipelined(images, w)
		if err != nil {
			t.Fatal(err)
		}
		return st.IPS
	}
	latW1, latW4 := run(latPlan, 1), run(latPlan, 4)
	ipsW1, ipsW4 := run(ipsPlan, 1), run(ipsPlan, 4)
	t.Logf("runtime wall IPS: latency plan w1 %.2f w4 %.2f; ips plan w1 %.2f w4 %.2f",
		latW1, latW4, ipsW1, ipsW4)
	// The sim predicts ~1.7x; the runtime's gap-filling step queue lets
	// the latency plan pipeline better than the conservative model, so
	// the measured margin lands nearer 1.35x — still a real ordering.
	if ipsW4 <= 1.1*latW4 {
		t.Errorf("runtime does not reproduce the window-4 ordering: ips plan %.2f vs latency plan %.2f", ipsW4, latW4)
	}
	if latW1 <= 1.15*ipsW1 {
		t.Errorf("runtime does not reproduce the window-1 ordering: latency plan %.2f vs ips plan %.2f", latW1, ipsW1)
	}
}
