package sim

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"distredge/internal/device"
	"distredge/internal/strategy"
)

// The serving-engine snapshot: a seeded grid of pipelined, multi-tenant
// and churn streams — random strategies × window × batch cap × wire
// fraction × tenant mixes (FIFO/WFQ, staggered enqueue) × churn scripts
// (drop, join, slow, with and without recovery) — with every computed
// result field recorded in %.17g. testdata/serve_golden.txt was captured
// from the three separate admission loops the serving engine replaced
// (pipelined, multi-tenant and churn), so the engine must reproduce the
// file bit-for-bit. Config echoes the old loops disagreed on are not
// recorded: the multi-tenant policy name and the churn loop's Batch field,
// which it never set. Regenerate only for a deliberate model change:
//
//	go test ./internal/sim -run TestServeGolden -update-serve-golden
var updateServeGolden = flag.Bool("update-serve-golden", false, "rewrite testdata/serve_golden.txt")

const serveGoldenPath = "testdata/serve_golden.txt"

type serveCase struct {
	kind   string // "pipe", "multi" or "churn"
	env    int
	strat  int
	images int // pipe and churn
	window int
	batch  int
	wire   float64
	start  float64

	tenants []TenantSpec // multi
	policy  string

	events    []ChurnEvent // churn
	recover   bool
	replanSec float64
	latReplan bool // latencyReplan instead of the Rebalance default
}

func (c serveCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s env=%d strat=%d w=%d", c.kind, c.env, c.strat, c.window)
	switch c.kind {
	case "pipe":
		fmt.Fprintf(&b, " images=%d batch=%d wire=%s start=%s", c.images, c.batch, g17(c.wire), g17(c.start))
	case "multi":
		fmt.Fprintf(&b, " policy=%s batch=%d wire=%s start=%s tenants=", c.policy, c.batch, g17(c.wire), g17(c.start))
		for i, t := range c.tenants {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%s:%dx%s/w%d@%s", t.Name, t.Images, g17(t.Weight), t.Window, g17(t.EnqueueSec))
		}
	case "churn":
		fmt.Fprintf(&b, " images=%d start=%s recover=%v replanSec=%s lat=%v events=",
			c.images, g17(c.start), c.recover, g17(c.replanSec), c.latReplan)
		for i, ev := range c.events {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%s:%dx%s@%s", ev.Kind, ev.Device, g17(ev.Factor), g17(ev.At))
		}
	}
	return b.String()
}

func g17(x float64) string { return strconv.FormatFloat(x, 'g', 17, 64) }

func g17s(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = g17(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func fmtPipelineFields(r PipelineResult, withBatch bool) string {
	s := fmt.Sprintf("images=%d window=%d", r.Images, r.Window)
	if withBatch {
		s += fmt.Sprintf(" batch=%d", r.Batch)
	}
	return s + fmt.Sprintf(" total=%s ips=%s steady=%s mean=%s p50=%s p95=%s max=%s per=%s",
		g17(r.TotalSec), g17(r.IPS), g17(r.SteadyIPS), g17(r.MeanLatMS), g17(r.P50LatMS),
		g17(r.P95LatMS), g17(r.MaxLatMS), g17s(r.PerImageSec))
}

func fmtTenants(window int, total, ips float64, tenants []TenantResult) string {
	s := fmt.Sprintf("window=%d total=%s ips=%s", window, g17(total), g17(ips))
	for _, tr := range tenants {
		s += fmt.Sprintf(" {%s images=%d mean=%s p50=%s p95=%s max=%s per=%s}",
			tr.Name, tr.Images, g17(tr.MeanLatMS), g17(tr.P50LatMS), g17(tr.P95LatMS),
			g17(tr.MaxLatMS), g17s(tr.PerImageSec))
	}
	return s
}

func fmtChurnFields(r PipelineResult, completed, failed, recoveries, requeued int, failedAt float64, recov []float64) string {
	return fmtPipelineFields(r, false) + fmt.Sprintf(" completed=%d failed=%d recoveries=%d requeued=%d failedAt=%s recov=%s",
		completed, failed, recoveries, requeued, g17(failedAt), g17s(recov))
}

// serveGoldenGrid builds the seeded case grid. Churn event times are
// fractions of the matching no-churn stream's TotalSec, so every script
// lands mid-stream whatever the strategy's speed.
func serveGoldenGrid(t *testing.T) ([]*Env, [][]*strategy.Strategy, []serveCase) {
	rng := rand.New(rand.NewSource(12))
	envs := []*Env{
		equivEnv(t, true),
		equivEnv(t, false),
		testEnv(150, device.Xavier, device.Nano, device.TX2, device.Nano),
	}
	strats := make([][]*strategy.Strategy, len(envs))
	for ei, env := range envs {
		n := env.NumProviders()
		strats[ei] = []*strategy.Strategy{
			equivStrategies(env.Model, n)[0],
			randomStrategy(rng, env.Model, n),
			randomStrategy(rng, env.Model, n),
		}
	}
	starts := []float64{0, 4.5}
	mixes := [][]TenantSpec{
		{{Name: "solo", Images: 12}},
		{{Name: "heavy", Images: 12, Weight: 1}, {Name: "small", Images: 4, Weight: 4}},
		{
			{Name: "a", Images: 8},
			{Name: "b", Images: 6, Weight: 2, EnqueueSec: 0.3},
			{Name: "c", Images: 5, Window: 1, EnqueueSec: 0.05},
		},
	}
	var cases []serveCase
	for ei, env := range envs {
		n := env.NumProviders()
		for si, s := range strats[ei] {
			for _, window := range []int{1, 3, 6} {
				for _, batch := range []int{1, 0, 3} {
					for _, wire := range []float64{1, 0.25} {
						cases = append(cases, serveCase{
							kind: "pipe", env: ei, strat: si, window: window, batch: batch, wire: wire,
							images: 6 + rng.Intn(7), start: starts[rng.Intn(2)],
						})
					}
				}
			}
			for _, mix := range mixes {
				for _, policy := range []string{AdmitFIFO, AdmitWFQ} {
					bw := []struct {
						batch int
						wire  float64
					}{{1, 1}, {0, 0.5}, {2, 1}}[rng.Intn(3)]
					cases = append(cases, serveCase{
						kind: "multi", env: ei, strat: si, window: 1 + rng.Intn(5), batch: bw.batch, wire: bw.wire,
						start: starts[rng.Intn(2)], tenants: mix, policy: policy,
					})
				}
			}
			type script func(total float64, dev, other int) []ChurnEvent
			scripts := []script{
				func(T float64, d, o int) []ChurnEvent {
					return []ChurnEvent{{At: 0.4 * T, Kind: DeviceDrop, Device: d}}
				},
				func(T float64, d, o int) []ChurnEvent {
					return []ChurnEvent{{At: 0.6 * T, Kind: DeviceJoin, Device: d}, {At: 0.3 * T, Kind: DeviceDrop, Device: d}}
				},
				func(T float64, d, o int) []ChurnEvent {
					return []ChurnEvent{{At: 0.35 * T, Kind: DeviceSlow, Device: d, Factor: 2.5}}
				},
				func(T float64, d, o int) []ChurnEvent {
					return []ChurnEvent{{At: 0.2 * T, Kind: DeviceSlow, Device: d, Factor: 0.5}, {At: 0.7 * T, Kind: DeviceDrop, Device: o}}
				},
				func(T float64, d, o int) []ChurnEvent {
					return []ChurnEvent{
						{At: 0.1 * T, Kind: DeviceJoin, Device: o}, // already alive: no-op
						{At: 0.5 * T, Kind: DeviceDrop, Device: d},
						{At: 0.55 * T, Kind: DeviceDrop, Device: d}, // already dropped: no-op
					}
				},
				func(T float64, d, o int) []ChurnEvent {
					return []ChurnEvent{{At: 0.3 * T, Kind: DeviceDrop, Device: d}, {At: 0.3 * T, Kind: DeviceSlow, Device: o, Factor: 3}}
				},
				func(T float64, d, o int) []ChurnEvent {
					return []ChurnEvent{{At: 1.5 * T, Kind: DeviceDrop, Device: d}}
				},
				func(T float64, d, o int) []ChurnEvent {
					return []ChurnEvent{{At: 0, Kind: DeviceDrop, Device: d}, {At: 0.45 * T, Kind: DeviceJoin, Device: d}}
				},
			}
			for _, sc := range scripts {
				window := 1 + rng.Intn(5)
				images := 6 + rng.Intn(7)
				start := starts[rng.Intn(2)]
				base, err := env.PipelineStream(s, images, window, start)
				if err != nil {
					t.Fatal(err)
				}
				dev := rng.Intn(n)
				other := (dev + 1 + rng.Intn(n-1)) % n
				events := sc(base.TotalSec, dev, other)
				for i := range events {
					events[i].At += start
				}
				type churnOpt struct {
					recover   bool
					replanSec float64
					lat       bool
				}
				alt := []churnOpt{{true, 0.05, false}, {true, 0, true}}[rng.Intn(2)]
				for _, opt := range []churnOpt{{false, 0, false}, {true, 0, false}, alt} {
					cases = append(cases, serveCase{
						kind: "churn", env: ei, strat: si, window: window, images: images, start: start,
						events: events, recover: opt.recover, replanSec: opt.replanSec, latReplan: opt.lat,
					})
				}
			}
		}
	}
	return envs, strats, cases
}

// config is the Serve configuration a grid case ran with in its old loop:
// the churn loop was unbatched with raw wire bytes.
func (c serveCase) config() ServeConfig {
	cfg := ServeConfig{Window: c.window, Batch: c.batch, WireFrac: c.wire, Start: c.start}
	if c.kind == "multi" {
		cfg.Tenants, cfg.Policy = c.tenants, c.policy
	} else {
		cfg.Tenants = solo(c.images)
	}
	if c.kind == "churn" {
		cfg.Batch, cfg.Events, cfg.Recover, cfg.ReplanSec = 1, c.events, c.recover, c.replanSec
		if c.latReplan {
			cfg.Replan = latencyReplan
		}
	}
	return cfg
}

// runServeCase runs one grid case and renders its result line.
func runServeCase(env *Env, s *strategy.Strategy, c serveCase) string {
	r, err := env.Serve(s, c.config())
	if err != nil {
		return "err=" + err.Error()
	}
	switch c.kind {
	case "pipe":
		return fmtPipelineFields(r.PipelineResult, true)
	case "multi":
		return fmtTenants(r.Window, r.TotalSec, r.IPS, r.Tenants)
	default:
		return fmtChurnFields(r.PipelineResult, r.Completed, r.Failed, r.Recoveries, r.Requeued, r.FailedAtSec, r.EventRecoverySec)
	}
}

// TestServeGolden replays the grid and compares every line with the
// recorded snapshot.
func TestServeGolden(t *testing.T) {
	envs, strats, cases := serveGoldenGrid(t)
	got := make([]string, len(cases))
	for i, c := range cases {
		got[i] = c.String() + " | " + runServeCase(envs[c.env], strats[c.env][c.strat], c)
	}
	if *updateServeGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(serveGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), serveGoldenPath)
		return
	}
	f, err := os.Open(serveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("snapshot has %d cases, grid has %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("case %d differs:\n got: %s\nwant: %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cases differ from the snapshot", bad, len(got))
	}
}
