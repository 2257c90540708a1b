package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// The planner snapshot: cold, warm-started and cached plannings at the tiny
// budget, with every plan and score recorded (scores in %.17g).
// testdata/planner_golden.txt was captured from the separate cold and warm
// planners before they were merged into one PlanObjective, so the merged
// planner must reproduce the file bit-for-bit on both paths. The grid:
//
//   - cold plans of three fleets under the latency and ips objectives;
//   - warm plans of a neighbour fleet (one bandwidth tier over) under each
//     objective, seeded with each objective's cold plan and with stage
//     layouts over the stage and pool boundaries — so the seed's boundaries
//     both match and differ from the LC-PSS and stage ones;
//   - the planner sweep's cold, exact-hit and warm rows, served through
//     the plan cache.
//
// Regenerate only for a deliberate planner change:
//
//	go test ./internal/experiments -run TestPlannerGolden -update-planner-golden
var updatePlannerGolden = flag.Bool("update-planner-golden", false, "rewrite testdata/planner_golden.txt")

const plannerGoldenPath = "testdata/planner_golden.txt"

func fmtPlan(s *strategy.Strategy, score float64) string {
	return fmt.Sprintf("boundaries=%v splits=%v score=%.17g", s.Boundaries, s.Splits, score)
}

func plannerGoldenLines(t *testing.T) []string {
	t.Helper()
	b := Tiny()
	const alpha = 0.75
	objs := []struct {
		name string
		obj  sim.Objective
	}{
		{"latency", nil},
		{"ips", sim.ThroughputObjective{Window: 4}},
	}
	// Slow links, where the tiny search is far from converged: each fleet
	// tells the halved warm budget, the seed's extra boundary set or the
	// seed-as-candidate rule apart from its alternative.
	fleets := []struct {
		group    DeviceGroup
		model    *cnn.Model
		cold, to float64 // donor and warm-target bandwidths
	}{
		{DeviceGroups()[0], cnn.VGG16(), 7, 10},
		{DeviceGroups()[0], cnn.YOLOv2(), 35, 50},
		{DeviceGroups()[1], cnn.YOLOv2(), 7, 10},
	}
	var lines []string
	for _, f := range fleets {
		donor := f.group.Spec(f.model, f.cold, b.Seed)
		target := f.group.Spec(f.model, f.to, b.Seed)
		m, n := donor.Model, len(donor.Types)
		seeds := []*strategy.Strategy{nil, nil,
			StageStrategy(m, StageBoundaries(m, n), n),
			StageStrategy(m, strategy.PoolBoundaries(m), n)}
		seedNames := []string{"latency", "ips", "stage", "pool"}
		for i, o := range objs {
			env := donor.Env()
			s, err := PlanObjective(env, b, alpha, o.obj, nil)
			if err != nil {
				t.Fatal(err)
			}
			score, err := sim.DefaultObjective(o.obj).Score(env, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			seeds[i] = s
			lines = append(lines, fmt.Sprintf("cold %s %s | %s", donor.Name, o.name, fmtPlan(s, score)))
		}
		for _, o := range objs {
			for i, seedName := range seedNames {
				env := target.Env()
				s, err := PlanObjective(env, b, alpha, o.obj, seeds[i])
				if err != nil {
					t.Fatal(err)
				}
				score, err := sim.DefaultObjective(o.obj).Score(env, s, 0)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("warm %s %s seed=%s | %s", target.Name, o.name, seedName, fmtPlan(s, score)))
			}
		}
	}

	ps := NewPlannerSweep(b, alpha)
	cold, err := ps.Cold()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ps.Exact()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ps.Warm()
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.WarmReference(warm); err != nil {
		t.Fatal(err)
	}
	for _, phase := range [][]PlannerRow{cold, exact, warm} {
		for _, r := range phase {
			lines = append(lines, fmt.Sprintf("sweep %s %s | outcome=%s score=%.17g cold=%.17g",
				r.Phase, r.Fleet, r.Outcome, r.Score, r.ColdScore))
		}
	}
	return lines
}

// TestPlannerGolden replays the grid and compares every line with the
// recorded snapshot.
func TestPlannerGolden(t *testing.T) {
	got := plannerGoldenLines(t)
	if *updatePlannerGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(plannerGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), plannerGoldenPath)
		return
	}
	f, err := os.Open(plannerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("snapshot has %d lines, grid has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d differs:\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}
