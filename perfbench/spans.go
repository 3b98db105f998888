package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one recorded interval around a call into a layer. The layer is
// the part of Name before the first ':' (core, mat, randsvd, server,
// rangeidx, client, bench).
type spanRec struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays only a nil check per span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open interval; End closes it. The zero span (from a nil tracer)
// is inert.
type span struct {
	t     *tracer
	id    int64
	par   int64
	name  string
	req   string
	start time.Time
}

// begin opens a span under parent (0 for a root) on behalf of request req.
func (t *tracer) begin(parent int64, name, req string) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{}) // reserve the id; End fills it in
	id := int64(len(t.spans))
	t.mu.Unlock()
	return span{t: t, id: id, par: parent, name: name, req: req, start: time.Now()}
}

func (s span) End() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	s.t.spans[s.id-1] = spanRec{
		ID: s.id, Parent: s.par, Name: s.name, Request: s.req,
		StartNs: s.start.Sub(s.t.epoch).Nanoseconds(),
		EndNs:   end.Sub(s.t.epoch).Nanoseconds(),
	}
	s.t.mu.Unlock()
}

// ID is the span's identifier, for use as a child's parent (0 when inert).
func (s span) ID() int64 { return s.id }

func layerOf(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfSeconds sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]spanRec{}
	for _, s := range t.spans {
		if s.ID != 0 && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.ID == 0 {
			continue // opened but never ended
		}
		covered := coveredNs(s, kids[s.ID])
		out[layerOf(s.Name)] += float64(s.EndNs-s.StartNs-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the children's intervals clipped
// to the parent's interval.
func coveredNs(p spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, p.StartNs), min(k.EndNs, p.EndNs)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeJSONL writes every closed span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if s.ID != 0 {
			if err := enc.Encode(s); err != nil {
				t.mu.Unlock()
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
