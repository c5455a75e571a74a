package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request or commit
// group share id; parent indexes the enclosing span, -1 at the root.
type span struct {
	name       string
	id         uint64
	parent     int
	start, end time.Duration // since the recorder's start
}

// recorder keeps spans in memory for one goroutine: begin opens a span
// under the innermost open one, end closes it. The traced run calls each
// layer from a single goroutine, so spans nest strictly.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, id uint64) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: time.Since(r.t0)})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) time.Duration {
	r.spans[i].end = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
	return r.spans[i].end - r.spans[i].start
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover; overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// durations returns the durations of every span named name, in
// milliseconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, float64((s.end-s.start).Nanoseconds())/1e6)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto), with each span's id, parent and self time in its args.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(r.spans)
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.id, "parent": s.parent,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
