package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// specJSON holds every workload parameter; see spec.json.
//
//go:embed spec.json
var specJSON []byte

//go:embed pinned_plan.json
var pinnedPlanJSON []byte

type pinnedSpec struct {
	File          string  `json:"file"`
	Model         string  `json:"model"`
	Providers     string  `json:"providers"`
	PlanSeed      int64   `json:"plan_seed"`
	Effort        string  `json:"effort"`
	GoldenSimIPS  float64 `json:"golden_sim_ips"`
	SimImages     int     `json:"sim_images"`
	StepsPerImage int     `json:"steps_per_image"`
}

// serveSpec parameterises both serving workloads; the open-loop fields are
// zero for serve_bulk.
type serveSpec struct {
	Why          string  `json:"why"`
	Outstanding  int     `json:"outstanding"`
	Window       int     `json:"window"`
	Tenants      int     `json:"tenants"`
	Policy       string  `json:"policy"`
	Transport    string  `json:"transport"`
	BytesScale   float64 `json:"bytes_scale"`
	TimeScale    float64 `json:"time_scale"`
	WarmupS      float64 `json:"warmup_s"`
	SetupRepeats int     `json:"setup_repeats"`

	Weights      []float64 `json:"weights"`
	DeadlineMS   []float64 `json:"deadline_ms_by_weight"`
	OfferedIPS   float64   `json:"offered_ips"`
	FixedShare   float64   `json:"fixed_share"`
	LatencyLimit struct {
		Percentile float64 `json:"percentile"`
		MS         float64 `json:"ms"`
	} `json:"latency_limit"`
	Ladder struct {
		BaseIPS float64 `json:"base_ips"`
		Ratio   float64 `json:"ratio"`
		Points  int     `json:"points"`
	} `json:"ladder"`
}

type familySpec struct {
	Model     string   `json:"model"`
	Objective string   `json:"objective"`
	Devices   []string `json:"devices"`
}

type planStreamSpec struct {
	Why             string       `json:"why"`
	RequestsPerPass int          `json:"requests_per_pass"`
	ZipfS           float64      `json:"zipf_s"`
	ZipfV           float64      `json:"zipf_v"`
	Effort          string       `json:"effort"`
	PlanSeed        int64        `json:"plan_seed"`
	ObjectiveWindow int          `json:"objective_window"`
	SimImages       int          `json:"sim_images"`
	SetupRepeats    int          `json:"setup_repeats"`
	BandwidthsMbps  []float64    `json:"bandwidths_mbps"`
	Families        []familySpec `json:"families"`
}

// profileRule maps CPU-profile frames to the per-layer share metric they
// count toward.
type profileRule struct {
	FramePrefix string `json:"frame_prefix"`
	Metric      string `json:"metric"`
}

type benchSpec struct {
	Pinned       pinnedSpec     `json:"pinned_plan"`
	ServeBulk    serveSpec      `json:"serve_bulk"`
	ServeOpen    serveSpec      `json:"serve_open"`
	PlanStream   planStreamSpec `json:"plan_stream"`
	ProfileRules []profileRule  `json:"profile_layers"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	for _, w := range []*serveSpec{&s.ServeBulk, &s.ServeOpen} {
		if w.Window < 1 || w.Tenants < 1 || w.SetupRepeats < 1 {
			return nil, fmt.Errorf("spec.json: serving workload needs window, tenants and setup_repeats >= 1")
		}
	}
	if o := s.ServeOpen; len(o.Weights) == 0 || len(o.Weights) != len(o.DeadlineMS) || o.Ladder.Points < 2 || !(o.Ladder.Ratio > 1) {
		return nil, fmt.Errorf("spec.json: serve_open needs matching weights/deadlines and a rising ladder")
	}
	if p := s.PlanStream; len(p.Families) == 0 || len(p.BandwidthsMbps) == 0 || p.RequestsPerPass < len(p.Families)*len(p.BandwidthsMbps) {
		return nil, fmt.Errorf("spec.json: plan_stream needs families, bandwidths and a pass that covers every fleet")
	}
	return &s, nil
}
