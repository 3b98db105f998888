package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Format names a span export encoding accepted by Export.
type Format string

const (
	// FormatJSONL writes one JSON span object per line — the grep/jq-friendly
	// encoding, schema documented on the Span type.
	FormatJSONL Format = "jsonl"
	// FormatChrome writes the Chrome trace-event format (complete "X" events
	// plus thread-name metadata), loadable in Perfetto and chrome://tracing.
	FormatChrome Format = "chrome"
)

// ParseFormat validates a format name from a CLI flag.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatJSONL, FormatChrome:
		return Format(s), nil
	}
	return "", fmt.Errorf("trace: unknown format %q (known: %s, %s)", s, FormatJSONL, FormatChrome)
}

// Export writes the recorded spans to w in the given format.
func (t *Tracer) Export(w io.Writer, f Format) error {
	switch f {
	case FormatJSONL:
		return t.WriteJSONL(w)
	case FormatChrome:
		return t.WriteChrome(w)
	}
	return fmt.Errorf("trace: unknown format %q", f)
}

// WriteJSONL writes one JSON object per span, in start order. A nil tracer
// writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("trace: writing JSONL: %w", err)
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event format. Complete ("X")
// events carry a duration, so every emitted span is balanced by
// construction; "M" metadata events name the lanes.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"` // microseconds
	// Dur is emitted on every X event (not omitempty: a zero-duration span
	// without a dur field renders as unterminated in some viewers).
	Dur  float64        `json:"dur"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container variant of the format (both the
// bare-array and object forms are accepted by Perfetto; the object form
// self-describes its time unit).
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the spans as a Chrome trace-event JSON document with
// one timeline row per lane: row 0 is the control lane, row w+1 is pool
// worker w. Load the file in https://ui.perfetto.dev or chrome://tracing.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	lanes := map[int]bool{}
	for _, sp := range spans {
		lanes[sp.Lane] = true
	}
	var events []chromeEvent
	for lane := 0; len(lanes) > 0; lane++ {
		if !lanes[lane] {
			// Lanes are dense in practice (0..workers); guard against gaps.
			delete(lanes, lane)
			continue
		}
		delete(lanes, lane)
		name := "control"
		if lane > 0 {
			name = fmt.Sprintf("worker %d", lane-1)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": name},
		})
	}
	for _, sp := range spans {
		args := map[string]any{"id": int64(sp.ID), "parent": int64(sp.Parent)}
		if sp.Idx != NoIdx {
			args["idx"] = sp.Idx
		}
		if sp.Forced {
			args["forced"] = true
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: sp.Lane,
			Ts:   float64(sp.Start.Nanoseconds()) / 1e3,
			Dur:  float64(sp.Dur.Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("trace: writing Chrome trace: %w", err)
	}
	return nil
}
