package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// knownFailures are gates that fail because of a defect in the program,
// not in the benchmark (perfbench/design.json, known_findings). Fixing
// the defect makes this test fail until its entry is removed.
var knownFailures = map[string]string{
	"gradsec-device": "final model matches plain-SGD FedAvg within 1e-9",
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	return spec
}

// TestSmoke runs every workload for a few rounds, untraced and traced,
// and checks that every gate passes and every metric prints with its
// unit, the result line carrying exactly BENCHMARK.json's metrics.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 3, trace: true, rounds: 1, setups: 2,
				replayMin: time.Millisecond, spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			if knownFailures[w.name] != "" {
				// gradsec-device's defect shows from the second round,
				// the first in which a layer leaves the TEE.
				cfg.warmup = 1
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range rep.gates {
				known := strings.HasSuffix(g.name, ": "+knownFailures[w.name])
				switch {
				case !g.ok && !known:
					t.Errorf("gate %q failed: %s", g.name, g.detail)
				case g.ok && known:
					t.Errorf("gate %q passes: remove it from knownFailures and design.json", g.name)
				}
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			text := out.String()
			for _, ms := range [][]metric{rep.e2e, rep.layers} {
				for _, m := range ms {
					if !strings.Contains(text, m.name) || m.unit == "" || !strings.Contains(text, m.unit) {
						t.Errorf("metric %s [%s] not printed with its unit", m.name, m.unit)
					}
				}
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var res struct {
				Metrics map[string]jsonMetric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("result carries %d metrics, BENCHMARK.json lists %d per-layer ones", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s [%s] missing from the result (got %+v)", m.Name, m.Unit, got)
				}
			}
			e2e := make(map[string]string)
			for _, m := range rep.e2e {
				if m.json {
					e2e[m.name] = m.unit
				}
			}
			if len(e2e) != len(spec.EndToEnd) {
				t.Errorf("untraced result carries %d metrics, BENCHMARK.json lists %d end-to-end ones", len(e2e), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				if e2e[m.Name] != m.Unit {
					t.Errorf("end-to-end metric %s [%s] missing (got unit %q)", m.Name, m.Unit, e2e[m.Name])
				}
			}
		})
	}
}
