package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a public module function.
// Parent is the index of the enclosing span, -1 at the top level.
type span struct {
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps a round's spans in memory; write dumps them at exit. A nil
// *spanLog records nothing, so untraced rounds pay one nil check per call.
type spanLog struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // stack of indexes of unfinished spans
}

func newSpanLog(run string) *spanLog { return &spanLog{run: run, t0: time.Now()} }

// do times fn as a span named name, nested under the innermost open span.
func (l *spanLog) do(name string, fn func() error) error {
	if l == nil {
		return fn()
	}
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	idx := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Run: l.run, Start: int64(time.Since(l.t0)), Parent: parent})
	l.open = append(l.open, idx)
	err := fn()
	l.spans[idx].End = int64(time.Since(l.t0))
	l.open = l.open[:len(l.open)-1]
	return err
}

// selfSeconds sums, per span name, each span's duration minus the part its
// child spans cover.
func (l *spanLog) selfSeconds() map[string]float64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range l.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// durations lists the host seconds of every span with the given name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
