package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, made from the
// benchmark's own files. Spans of one replayed request share Req. Parent is
// the id of the span this one is attributed to, -1 for none.
//
// The benchmark cannot open a function it calls, so a child is not
// literally nested in its parent: Shadow marks a span that repeats, on the
// same inputs and just before or after it, a call its parent makes
// internally (Planner.Instantiate's PrepareQueryInto, Database.Do's
// Instantiate, …). Self time subtracts children either way.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"` // since the traced pass began
	EndUs   float64 `json:"end_us"`
	Shadow  bool    `json:"shadow,omitempty"`
}

// count is an exact counter read at a layer boundary for one request.
type count struct {
	Req   int    `json:"req"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// recorder keeps spans and counts in memory; write puts them on disk when
// the pass is over.
type recorder struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    []span  `json:"spans"`
	Counts   []count `json:"counts"`
	origin   time.Time
}

func newRecorder(workload string, seed int64) *recorder {
	return &recorder{Workload: workload, Seed: seed, origin: time.Now()}
}

// timed runs fn as a span and returns its duration and id.
func (r *recorder) timed(name string, parent, req int, shadow bool, fn func()) (time.Duration, int) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	id := len(r.Spans)
	r.Spans = append(r.Spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Shadow: shadow,
		StartUs: us(t0.Sub(r.origin)), EndUs: us(t1.Sub(r.origin)),
	})
	return t1.Sub(t0), id
}

// reparent attributes span id to parent after the fact: a shadow child
// runs before the call it is a part of.
func (r *recorder) reparent(id, parent int) {
	r.Spans[id].Parent = parent
}

func (r *recorder) count(req int, name string, v int64) {
	r.Counts = append(r.Counts, count{Req: req, Name: name, Value: v})
}

// perRequest groups, by request, the durations (µs) of spans called name;
// with self set, each duration is reduced by the span's children.
func (r *recorder) perRequest(name string, self bool) []float64 {
	child := make([]float64, len(r.Spans))
	for _, s := range r.Spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndUs - s.StartUs
		}
	}
	byReq := map[int]float64{}
	var order []int
	for _, s := range r.Spans {
		if s.Name != name {
			continue
		}
		d := s.EndUs - s.StartUs
		if self {
			d -= child[s.ID]
		}
		if _, ok := byReq[s.Req]; !ok {
			order = append(order, s.Req)
		}
		byReq[s.Req] += d
	}
	out := make([]float64, len(order))
	for i, req := range order {
		out[i] = byReq[req]
	}
	return out
}

// counts returns the per-request values of counter name.
func (r *recorder) counts(name string) []float64 {
	var out []float64
	for _, c := range r.Counts {
		if c.Name == name {
			out = append(out, float64(c.Value))
		}
	}
	return out
}

// write stores the trace as <dir>/trace_<workload>.json.
func (r *recorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+r.Workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
