package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "request", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 20 * ms, end: 50 * ms}, // overlaps a
		{name: "c", parent: 0, start: 60 * ms, end: 70 * ms},
		{name: "c.1", parent: 3, start: 62 * ms, end: 66 * ms},
		{name: "other", parent: -1, start: 0, end: 5 * ms},
	}
	want := []time.Duration{50 * ms, 20 * ms, 30 * ms, 6 * ms, 4 * ms, 5 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestRecorderNestsAndWritesChrome(t *testing.T) {
	r := newRecorder()
	root := r.begin("request", 7)
	child := r.begin("serve.Flush", 7)
	r.end(child)
	r.end(root)
	if r.spans[child].parent != root || r.spans[root].parent != -1 {
		t.Fatalf("parents %d/%d, want %d/-1", r.spans[child].parent, r.spans[root].parent, root)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["id"].(float64) != 7 {
		t.Fatalf("unexpected trace %s", b)
	}
}
