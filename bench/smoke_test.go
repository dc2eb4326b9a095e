package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload for a fraction of a second with the traced
// pass on, so the harness cannot rot unnoticed: every named metric must be
// emitted and finite (runWorkload checks that and fails otherwise), no
// answer may fail its check, and the trace file must parse with its parent
// links intact.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, seconds: 0.3, trace: true, outDir: t.TempDir(), smoke: true}
			rep, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.firstErr)
			}
			if len(rep.e2e) != len(endToEnd) || len(rep.layers) != len(perLayer) {
				t.Fatalf("reported %d end-to-end and %d per-layer metrics, the tables name %d and %d",
					len(rep.e2e), len(rep.layers), len(endToEnd), len(perLayer))
			}
			for _, d := range endToEnd {
				if rep.e2e[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, rep.e2e[d.Name])
				}
			}

			raw, err := os.ReadFile(rep.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var tr recorder
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatalf("%s: %v", rep.tracePath, err)
			}
			if tr.Workload != w.name || len(tr.Spans) == 0 || len(tr.Counts) == 0 {
				t.Fatalf("trace of %q holds %d spans and %d counts", tr.Workload, len(tr.Spans), len(tr.Counts))
			}
			for i, s := range tr.Spans {
				if s.ID != i || s.EndUs < s.StartUs {
					t.Fatalf("span %d: id %d, [%v, %v]", i, s.ID, s.StartUs, s.EndUs)
				}
				if s.Parent < 0 {
					continue
				}
				if s.Parent >= len(tr.Spans) || s.Parent == s.ID {
					t.Fatalf("span %d (%s) names parent %d of %d spans", s.ID, s.Name, s.Parent, len(tr.Spans))
				}
				if p := tr.Spans[s.Parent]; p.Req != s.Req {
					t.Fatalf("span %d (%s, request %d) has parent %d (%s) of request %d", s.ID, s.Name, s.Req, p.ID, p.Name, p.Req)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the harness
// together: same workloads, same metric names and units, and no bound
// above what the contract allows.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit string
		Bound      float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness reports %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
			if got[i].Bound < 0 || got[i].Bound > 0.25 {
				t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, got[i].Bound)
			}
		}
	}
	same("end-to-end", bj.EndToEnd, endToEnd)
	same("per-layer", bj.PerLayer, perLayer)
}
