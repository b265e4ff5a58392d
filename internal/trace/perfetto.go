package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/sim"
)

// Perfetto / Chrome trace-event export (the JSON "traceEvents" format,
// loadable at ui.perfetto.dev or chrome://tracing). Layout:
//
//   - one process ("pard-icn"), one thread track per hop;
//   - per archived packet, one async nestable span ("b"/"e", cat
//     "packet", id = packet ID) covering issue→completion on the
//     issuing hop's track;
//   - per hop span, one complete event ("X") on that hop's track with
//     args carrying the DS-id and the queue/service split in ticks;
//   - per telemetry series passed in, one counter track ("C") in a
//     second process ("pard-telemetry").
//
// Events are colored by DS-id from Chrome's reserved palette so two
// LDoms' packets are visually separable.

type perfettoEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	ID    string         `json:"id,omitempty"`
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type perfettoDoc struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// dsPalette indexes Chrome's reserved color names by DS-id.
var dsPalette = [...]string{
	"good", "rail_response", "yellow", "rail_animation",
	"olive", "rail_idle", "terrible", "grey",
}

func dsColor(ds core.DSID) string { return dsPalette[int(ds)%len(dsPalette)] }

// us converts simulated ticks (1 tick = 1 ps) to trace-event
// microseconds.
func us(t sim.Tick) float64 { return float64(t) / 1e6 }

// WritePerfetto exports the archived traces as Chrome/Perfetto
// trace-event JSON and returns the number of packet traces written.
// Each non-empty series, read in place, renders as a "C" counter track
// in a second process ("pard-telemetry"), so plane statistics scraped
// by the telemetry registry line up time-axis-aligned under the packet
// spans they explain; with no samples there is no second process.
func (r *Recorder) WritePerfetto(w io.Writer, series []*metric.Series) (int, error) {
	if r == nil {
		return 0, fmt.Errorf("trace: recorder not enabled")
	}
	traces := r.Traces()
	events := make([]perfettoEvent, 0, 2+len(r.hops)+3*len(traces))
	events = append(events, perfettoEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "pard-icn"},
	})
	for i, h := range r.hops {
		events = append(events, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": h},
		})
	}
	for i := range traces {
		t := &traces[i]
		track := int(t.Src) + 1
		if t.Src < 0 && t.NHops > 0 {
			track = int(t.Hops[0].Hop) + 1
		}
		if track < 1 {
			track = 1
		}
		id := fmt.Sprintf("%#x", t.ID)
		name := fmt.Sprintf("%v %v", t.Kind, t.DSID)
		col := dsColor(t.DSID)
		ends := map[string]any{"dsid": uint16(t.DSID), "pkt": t.ID}
		events = append(events, perfettoEvent{
			Name: name, Cat: "packet", Ph: "b", Pid: 1, Tid: track,
			Ts: us(t.Issue), ID: id, Cname: col,
			Args: map[string]any{
				"dsid": uint16(t.DSID), "pkt": t.ID,
				"kind": t.Kind.String(), "addr": t.Addr, "size": t.Size,
			},
		})
		for _, s := range t.Spans() {
			events = append(events, perfettoEvent{
				Name: r.HopName(int(s.Hop)), Cat: "hop", Ph: "X",
				Pid: 1, Tid: int(s.Hop) + 1,
				Ts: us(s.Enter), Dur: us(s.Done - s.Enter), Cname: col,
				Args: map[string]any{
					"dsid":       uint16(t.DSID),
					"pkt":        t.ID,
					"queue_ps":   uint64(s.QueueWait()),
					"service_ps": uint64(s.ServiceTime()),
				},
			})
		}
		events = append(events, perfettoEvent{
			Name: name, Cat: "packet", Ph: "e", Pid: 1, Tid: track,
			Ts: us(t.End), ID: id, Cname: col, Args: ends,
		})
	}
	counters := false
	for _, sr := range series {
		for i := 0; i < sr.Len(); i++ {
			if !counters {
				events = append(events, perfettoEvent{
					Name: "process_name", Ph: "M", Pid: 2,
					Args: map[string]any{"name": "pard-telemetry"},
				})
				counters = true
			}
			smp := sr.At(i)
			events = append(events, perfettoEvent{
				Name: sr.Name(), Cat: "telemetry", Ph: "C", Pid: 2,
				Ts: us(smp.When), Args: map[string]any{"value": smp.Value},
			})
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(perfettoDoc{TraceEvents: events, DisplayTimeUnit: "ns"}); err != nil {
		return 0, err
	}
	return len(traces), nil
}
