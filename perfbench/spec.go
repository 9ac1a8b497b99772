package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"evr/internal/scene"
)

// A workload's and a metric's name, a workload's reason and a metric's
// unit and direction live in the repository's BENCHMARK.json, read at run
// time. spec.json adds what BENCHMARK.json has no keys for, under the same
// names: each workload's catalog, cache budgets, store delay, rate ladder
// and request mix, and each metric's layer, the end-to-end metric and
// workload it should move, and how it is measured. The program runs
// exactly what the two files say, and refuses a name that one of them
// lacks.
//
//go:embed spec.json
var specJSON []byte

// Spec is BENCHMARK.json joined with spec.json.
type Spec struct {
	DefaultSeed uint64 `json:"default_seed"`
	// Segments bounds ingest (server.IngestConfig.MaxSegments) and playback.
	Segments int `json:"segments"`
	// SetupRepeats is how many times an untraced run sets the workload up;
	// setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`
	// UnattributedTolPct is the per-frame sum check's tolerance: a traced
	// run whose demand-path stages leave more than this share of session
	// time unaccounted for, or account for more than all of it by this
	// share, is flagged.
	UnattributedTolPct float64 `json:"unattributed_tolerance_pct"`
	// Workloads and Metrics are in BENCHMARK.json's order.
	Workloads []Workload `json:"-"`
	Metrics   []Metric   `json:"-"`
}

// Workload is one traffic shape.
type Workload struct {
	Name string `json:"-"`
	Why  string `json:"-"`
	// Kind is "playback" (closed-loop client.Player sessions) or "churn"
	// (open-loop HTTP GETs plus timed publishes).
	Kind string `json:"kind"`
	// Target is "service" (one server.Service) or "cluster".
	Target string   `json:"target"`
	Videos []string `json:"videos"`
	// Zipf > 0 draws videos with P(rank i) ∝ 1/i^Zipf; 0 draws uniformly.
	Zipf     float64 `json:"zipf"`
	Tiled    bool    `json:"tiled"`
	Delivery string  `json:"delivery"` // "" classic FOV/orig player, "auto" mixed policy
	Sessions int     `json:"sessions"`
	// PoolPairs is how many distinct (video, user) head traces sessions
	// cycle through, so every pair repeats and its checksum can be
	// compared with its first play.
	PoolPairs      int     `json:"pool_pairs"`
	Shards         int     `json:"shards"`
	EdgeCacheBytes int64   `json:"edge_cache_bytes"`
	RespCacheBytes int64   `json:"resp_cache_bytes"`
	StoreDelayMs   float64 `json:"store_delay_ms"`
	// Churn only.
	Connections    int       `json:"connections"`
	RatesPerS      []float64 `json:"rates_per_s"`
	NominalPerS    float64   `json:"nominal_per_s"`
	LatencyLimitMs float64   `json:"latency_limit_ms"`
	PublishEveryMs float64   `json:"publish_every_ms"`
	Mix            []MixItem `json:"mix"`
	// MixSource says where the mix's weights were measured.
	MixSource string `json:"mix_source"`
}

// MixItem is one payload kind's share of the churn request mix. A "fov"
// draw asks for a FOV video and then its metadata, as the player does.
type MixItem struct {
	Kind   string  `json:"kind"`
	Weight float64 `json:"weight"`
}

// Metric describes one reported number.
type Metric struct {
	Name   string `json:"-"`
	Unit   string `json:"-"`
	Better string `json:"-"`
	// Set is "end_to_end" (printed by untraced runs) or "per_layer"
	// (printed by traced runs): the BENCHMARK.json list it is in.
	Set   string `json:"-"`
	Layer string `json:"layer"`
	// Moves names the end-to-end metric and workloads this one should
	// move; Note says how it is measured.
	Moves string `json:"moves"`
	Note  string `json:"note"`
}

// loadSpec reads BENCHMARK.json at path and joins it with spec.json.
func loadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type named struct {
		Name, Why, Unit, Better string
	}
	var bench struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var s Spec
	var extra struct {
		Workloads map[string]Workload `json:"workloads"`
		Metrics   map[string]Metric   `json:"metrics"`
	}
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	if err := json.Unmarshal(specJSON, &extra); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	for _, b := range bench.Workloads {
		w, ok := extra.Workloads[b.Name]
		if !ok {
			return nil, fmt.Errorf("spec.json has no workload %q", b.Name)
		}
		delete(extra.Workloads, b.Name)
		w.Name, w.Why = b.Name, b.Why
		s.Workloads = append(s.Workloads, w)
	}
	for _, set := range []struct {
		name string
		list []named
	}{{"end_to_end", bench.EndToEnd}, {"per_layer", bench.PerLayer}} {
		for _, b := range set.list {
			m, ok := extra.Metrics[b.Name]
			if !ok {
				return nil, fmt.Errorf("spec.json has no metric %q", b.Name)
			}
			delete(extra.Metrics, b.Name)
			m.Name, m.Unit, m.Better, m.Set = b.Name, b.Unit, b.Better, set.name
			s.Metrics = append(s.Metrics, m)
		}
	}
	for name := range extra.Workloads {
		return nil, fmt.Errorf("workload %q is in spec.json but not in %s", name, path)
	}
	for name := range extra.Metrics {
		return nil, fmt.Errorf("metric %q is in spec.json but not in %s", name, path)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if s.Segments < 1 || s.SetupRepeats < 1 {
		return fmt.Errorf("segments and setup_repeats must be ≥ 1")
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if _, err := w.videoSpecs(); err != nil {
			return err
		}
		switch w.Target {
		case "service":
		case "cluster":
			if w.Shards < 1 {
				return fmt.Errorf("%s: cluster needs shards ≥ 1", w.Name)
			}
		default:
			return fmt.Errorf("%s: unknown target %q", w.Name, w.Target)
		}
		switch w.Kind {
		case "playback":
			if w.Sessions < 1 || w.PoolPairs < len(w.Videos) {
				return fmt.Errorf("%s: sessions and pool_pairs out of range", w.Name)
			}
		case "churn":
			if w.Target != "cluster" || !w.Tiled {
				return fmt.Errorf("%s: churn runs against a tiled cluster", w.Name)
			}
			if w.Connections < 1 || len(w.RatesPerS) == 0 || w.LatencyLimitMs <= 0 || w.PublishEveryMs <= 0 || len(w.Mix) == 0 {
				return fmt.Errorf("%s: churn needs connections, rates, a latency limit, a publish interval and a mix", w.Name)
			}
			nominal := false
			for i, r := range w.RatesPerS {
				if r <= 0 || (i > 0 && r <= w.RatesPerS[i-1]) {
					return fmt.Errorf("%s: rates must be positive and ascending", w.Name)
				}
				nominal = nominal || r == w.NominalPerS
			}
			if !nominal {
				return fmt.Errorf("%s: nominal rate %v is not on the ladder", w.Name, w.NominalPerS)
			}
			for _, m := range w.Mix {
				switch m.Kind {
				case "fov", "orig", "tile", "tilelow":
				default:
					return fmt.Errorf("%s: unknown mix kind %q", w.Name, m.Kind)
				}
				if m.Weight <= 0 {
					return fmt.Errorf("%s: mix weights must be positive", w.Name)
				}
			}
		default:
			return fmt.Errorf("%s: unknown kind %q", w.Name, w.Kind)
		}
	}
	return nil
}

func (s *Spec) workload(name string) (*Workload, bool) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], true
		}
	}
	return nil, false
}

// metricsOf returns the metrics of one set, in BENCHMARK.json's order.
func (s *Spec) metricsOf(set string) []Metric {
	var out []Metric
	for _, m := range s.Metrics {
		if m.Set == set {
			out = append(out, m)
		}
	}
	return out
}

func (w *Workload) videoSpecs() ([]scene.VideoSpec, error) {
	if len(w.Videos) == 0 {
		return nil, fmt.Errorf("%s: no videos", w.Name)
	}
	var out []scene.VideoSpec
	for _, name := range w.Videos {
		v, ok := scene.ByName(name)
		if !ok {
			return nil, fmt.Errorf("%s: unknown video %q", w.Name, name)
		}
		out = append(out, v)
	}
	return out, nil
}

func (w *Workload) storeDelay() time.Duration {
	return time.Duration(w.StoreDelayMs * float64(time.Millisecond))
}
